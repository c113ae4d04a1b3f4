"""A batch's jobs on plain forked children, one job in flight each.

Only a batch with more than one worker imports this module, so the other
commands carry none of it.  Each child has a task pipe, on which the parent
sends one job index at a time, and a result pipe, on which the child
answers with one report line; the parent sends the next index when that
line arrives.  The parent runs no job itself.  A child that dies costs only
its own job, which is reported with how the child ended, and a new child
takes the jobs still waiting.

The caller passes the worker in: this module does not import a4diff.cli,
which `python -m a4diff.cli` runs as __main__, so an import here would
load the whole command line a second time.
"""

import os
import select
import signal


class _Child:
    """A forked batch worker: the write end of its task pipe, the read end
    of its result pipe and its job in flight."""

    def __init__(self, jobs, worker, siblings):
        task_r, self.tasks = os.pipe()
        result_r, result_w = os.pipe()
        self.results = open(result_r, "rb")
        self.pid = os.fork()
        if self.pid == 0:
            _child_loop(jobs, worker, task_r, result_w, [self, *siblings])
        os.close(task_r)
        os.close(result_w)
        self.job = None

    def hand_out(self, waiting):
        """Send the next waiting job; with none left, close the task pipe,
        which ends the child."""
        self.job = waiting.pop() if waiting else None
        if self.job is not None:
            try:
                os.write(self.tasks, b"%d\n" % self.job)
                return
            except BrokenPipeError:    # the child is gone: keep the job
                waiting.append(self.job)
                self.job = None
        os.close(self.tasks)
        self.tasks = None

    def close(self):
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None
        self.results.close()


def _child_loop(jobs, worker, task_r, result_w, inherited):
    """Body of a forked child: one report line per job index read, until
    its task pipe closes.  It first closes the parent's pipe ends it
    inherited, so that closing a task pipe ends its child, and it leaves by
    os._exit, so nothing the parent had buffered is flushed twice."""
    status = 1
    try:
        for child in inherited:
            child.close()
        with open(task_r, "rb") as tasks, open(result_w, "wb") as results:
            for task in tasks:
                code, line = worker(jobs[int(task)])
                results.write(b"%d %s\n" % (code, line.encode()))
                results.flush()
        status = 0
    finally:
        os._exit(status)


def run_forked(jobs, workers, worker):
    """worker(job), a pair (exit code, report line), for each job in input
    order, from `workers` forked children; a job whose child died gets
    (None, how the child ended).  Every child is reaped before this returns
    or raises."""
    results = [None] * len(jobs)
    waiting = list(reversed(range(len(jobs))))
    children = {}    # result pipe -> _Child
    try:
        while children or waiting:
            while waiting and len(children) < workers:
                child = _Child(jobs, worker, children.values())
                children[child.results] = child
                child.hand_out(waiting)
            ready, _, _ = select.select(list(children), [], [])
            for pipe in ready:
                child = children[pipe]
                # a child has at most one line outstanding, so this reads
                # no further than its end
                line = pipe.readline()
                if line.endswith(b"\n"):
                    code, report = line.decode().split(" ", 1)
                    results[child.job] = int(code), report[:-1]
                    child.hand_out(waiting)
                    continue
                # end of file: the child has exited
                del children[pipe]
                child.close()
                _, status = os.waitpid(child.pid, 0)
                if child.job is not None:
                    results[child.job] = None, _how_it_ended(status)
    finally:
        for child in children.values():
            child.close()
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
    return results


def _how_it_ended(status):
    if os.WIFSIGNALED(status):
        how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    else:
        how = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return f"batch worker {how} before it reported this job"
