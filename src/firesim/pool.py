"""Process pools sized to the work and the machine.

``concurrent.futures`` (and with it ``multiprocessing``) is imported only
when a pool is started, so a command that runs in one process never loads
it.
"""

from __future__ import annotations

import os


def pool_size(parallelism: int, task_count: int) -> int:
    """Workers worth starting: no more than the tasks or the CPUs.

    ``ProcessPoolExecutor`` under the fork start method starts every
    worker at once, so an unclamped ``--parallelism`` forks that many
    processes however few tasks there are.
    """
    return min(parallelism, task_count, os.cpu_count() or 1)


def run_tasks(tasks: list, worker, parallelism: int) -> list:
    """``worker`` over ``tasks``, results in task order.

    With one worker or fewer the tasks run in this process and no pool
    starts.  When each worker gets exactly one task, this process is one of
    the workers: it runs the first task while a pool of one process fewer
    runs the rest.  With more tasks than workers the pool runs them all, so
    a free worker takes the next task.  Either way every pool process is
    joined before this returns or raises.
    """
    workers = pool_size(parallelism, len(tasks))
    if workers <= 1:
        return [worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    if workers < len(tasks):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks))
    with ProcessPoolExecutor(max_workers=workers - 1) as pool:
        rest = pool.map(worker, tasks[1:])  # submitted, and the pool forked, first
        first = worker(tasks[0])
        return [first, *rest]
