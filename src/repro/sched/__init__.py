"""Scheduler plug-ins controlling thread interleaving and flushing.

The paper's key exploration device is the *flush-delaying demonic
scheduler* (:class:`FlushDelayScheduler`): at each decision point, if any
thread's store buffer is non-empty, it flushes with a user-supplied
*flush probability* one store of a uniformly chosen pending thread (under
PSO, of a uniformly chosen address); otherwise it steps a uniformly
chosen enabled thread.  Low probabilities keep stores buffered long and
expose relaxed behaviours, high probabilities approach SC.
"""

from .base import Scheduler
from .explorer import REDUCTIONS, ExplorationResult, ExploreStats, explore
from .flush_random import FlushDelayScheduler
from .replay import ReplayScheduler, TracingScheduler, Witness

__all__ = ["ExplorationResult", "ExploreStats", "FlushDelayScheduler",
           "REDUCTIONS", "ReplayScheduler", "Scheduler", "TracingScheduler",
           "Witness", "explore"]
