"""A batch's jobs on plain forked children, one child per job.

Only a batch with more than one worker imports this module, so the other
commands carry none of it.  The parent forks a child for each job, with at
most `workers` running at a time, and runs no job itself.  A child runs
its one job, writes its one report line on its result pipe and exits; the
parent reads the pipe to its end, reaps the child and forks the next.  A
child that dies costs only its own job, which is reported with how the
child ended.  A child inherits only the read ends of the other result
pipes, which cannot hold back another child's end of file.

The caller passes the worker in: this module does not import a4diff.cli,
which `python -m a4diff.cli` runs as __main__, so an import here would
load the whole command line a second time.
"""

import os
import select
import signal


def _fork(job, worker):
    """(pid, read end of its result pipe) of a child that writes
    worker(job) as "<code> <line>\\n".  The child leaves by os._exit, so
    nothing the parent had buffered is flushed twice."""
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(result_r)
            code, line = worker(job)
            with open(result_w, "wb") as results:
                results.write(b"%d %s\n" % (code, line.encode()))
            status = 0
        finally:
            os._exit(status)
    os.close(result_w)
    return pid, open(result_r, "rb")


def run_forked(jobs, workers, worker):
    """worker(job), a pair (exit code, report line), for each job in input
    order, each from a forked child of its own, `workers` at a time; a job
    whose child died gets (None, how the child ended).  Every child is
    reaped before this returns or raises."""
    results = [None] * len(jobs)
    started = 0
    running = {}    # result pipe -> (pid, job index)
    try:
        while running or started < len(jobs):
            while started < len(jobs) and len(running) < workers:
                pid, pipe = _fork(jobs[started], worker)
                running[pipe] = pid, started
                started += 1
            ready, _, _ = select.select(list(running), [], [])
            for pipe in ready:
                pid, job = running[pipe]
                line = pipe.read()
                _, status = os.waitpid(pid, 0)
                del running[pipe]
                pipe.close()
                if line.endswith(b"\n"):
                    code, report = line.decode().split(" ", 1)
                    results[job] = int(code), report[:-1]
                else:    # the child died before it wrote its line
                    results[job] = None, _how_it_ended(status)
    finally:
        for pipe, (pid, _) in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _how_it_ended(status):
    if os.WIFSIGNALED(status):
        how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    else:
        how = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return f"batch worker {how} before it reported this job"
