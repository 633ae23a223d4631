"""The multiprocess execution backend.

:class:`ProcessPool` forks ``workers`` children on the first ``run()``
after a ``broadcast()``; each child inherits the module, spec and run
configuration, and keeps one store-buffer model and predicate sink for
all its executions.  A round deals child *k* the share ``jobs[k::n]``
over its :func:`multiprocessing.Pipe`; the child answers with one list of
compact :class:`ExecutionSummary` records, and ``run`` yields them in
execution-index order (summary *i* is item ``i // n`` of share
``i % n``).  After a re-broadcast the next round pickles the snapshot
once and sends the blob with every share.

``close()`` closes the pipes, which stops the children, and reaps them.
A ``run()`` closed before its last summary (round decided,
``test_program`` early stop), and a child that dies or raises, SIGKILL
and reap every child, and for a failed child ``run()`` raises
:class:`RuntimeError` with its exit status; the next round forks fresh
children.  The parent runs no other thread, so forking it is safe.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from multiprocessing import Pipe
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..ir.module import Module
from ..memory.models import make_model
from ..memory.predicates import PredicateSink
from ..spec.specifications import Specification
from ..vm.interp import DEFAULT_MAX_STEPS
from .pool import ExecutionPool, Job
from .serial import run_jobs
from .summary import ExecutionSummary

#: A worker's snapshot and its version, and its ``run_jobs`` settings.
_worker_state: dict = {}


def _run_batch(version: int, blob: Optional[bytes],
               jobs: List[Job]) -> List[ExecutionSummary]:
    """Execute one share of jobs against the snapshot of *version*: the
    pickled *blob*, or None when the worker already holds it."""
    state = _worker_state
    if state["version"] != version:
        state.update(version=version, snapshot=pickle.loads(blob))
    module, spec, operations = state["snapshot"]
    return list(run_jobs(jobs, module, spec, operations, *state["config"],
                         worker=state["worker"]))


class ProcessPool(ExecutionPool):
    """Fans rounds of executions out to forked worker processes."""

    def __init__(self, workers: int, model_name: str, flush_prob: float,
                 por: bool = True,
                 max_steps: int = DEFAULT_MAX_STEPS) -> None:
        if workers < 1:
            raise ValueError("ProcessPool needs at least one worker")
        self.workers = workers
        self.model_name = model_name
        self.flush_prob = flush_prob
        self.por = por
        self.max_steps = max_steps
        self._version = 0
        self._snapshot: Optional[tuple] = None
        #: ``(pid, pipe end)`` of each live child, in share order.
        self._children: list = []
        #: The snapshot version the live children hold.
        self._child_version = 0

    # -- lifecycle -----------------------------------------------------

    def _fork(self) -> None:
        for _ in range(self.workers):
            conn, child_conn = Pipe()
            pid = os.fork()
            if pid == 0:
                conn.close()
                self._serve(child_conn)
            child_conn.close()
            self._children.append((pid, conn))
        self._child_version = self._version

    def _serve(self, conn) -> None:
        """A child's loop: run each share received until the parent
        closes the pipe.  Never returns."""
        status = 1
        try:
            for _, sibling in self._children:
                sibling.close()
            _worker_state.update(
                version=self._version, snapshot=self._snapshot,
                config=(make_model(self.model_name), PredicateSink(),
                        self.flush_prob, self.por, self.max_steps),
                worker="pid%d" % os.getpid())
            while True:
                try:
                    message = conn.recv()
                except EOFError:
                    break
                # Looked up per share, so a wrapper installed on the
                # module global before the fork runs here too.
                conn.send(_run_batch(*message))
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            # Never unwind into the parent's stack copied by the fork.
            os._exit(status)

    def close(self) -> None:
        self._reap()

    def _reap(self, kill: bool = False) -> Dict[int, int]:
        """Close every pipe (and SIGKILL the child if *kill*), then reap
        the children; returns each one's exit status."""
        children, self._children = self._children, []
        for pid, conn in children:
            conn.close()
            if kill:
                os.kill(pid, signal.SIGKILL)
        return {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                for pid, _ in children}

    # -- round protocol ------------------------------------------------

    def broadcast(self, module: Module, spec: Specification,
                  operations: Sequence[str] = ()) -> None:
        """Publish a new snapshot; live children get it pickled with
        their next share, children forked later inherit it."""
        self._version += 1
        self._snapshot = (module, spec, tuple(operations))

    def run(self, jobs: Iterable[Job]) -> Iterator[ExecutionSummary]:
        if self._snapshot is None:
            raise RuntimeError("broadcast() must be called before run()")
        job_list = list(jobs)
        if not job_list:
            return
        if not self._children:
            self._fork()
        blob = None
        if self._child_version != self._version:
            blob = pickle.dumps(self._snapshot,
                                protocol=pickle.HIGHEST_PROTOCOL)
            self._child_version = self._version
        count = len(self._children)  # short of workers if a fork failed
        done = False
        try:
            for k, (pid, conn) in enumerate(self._children):
                conn.send((self._version, blob, job_list[k::count]))
            shares = []
            for pid, conn in self._children:
                shares.append(conn.recv())
            for index in range(len(job_list)):
                yield shares[index % count][index // count]
            done = True
        except (EOFError, OSError):
            raise RuntimeError("worker pid %d exited with status %d" % (
                pid, self._reap(kill=True)[pid])) from None
        finally:
            if not done:
                self._reap(kill=True)
