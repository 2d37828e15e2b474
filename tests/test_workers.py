import itertools
import logging
import multiprocessing
import os
import time

import pytest

import ahmsa.workers as workers_module
from ahmsa.errors import ConfigError
from ahmsa.workers import THREAD_ENV_VAR, forked_map, openblas_thread_controls, worker_count

# The workers are forked, so what a task function closes over is what they run.
# Without an OpenBLAS thread setter the tasks run in this process instead.
forks = pytest.mark.skipif(not openblas_thread_controls(),
                           reason="no OpenBLAS thread setter: tasks run in-process")


def count_forks(monkeypatch) -> list[int]:
    """Counts the processes forked from here on."""
    forked = []
    real_fork = os.fork

    def fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forked


@pytest.mark.parametrize("workers", [0, 1.5, True, "2"])
def test_rejects_worker_counts_that_are_not_positive_integers(workers):
    with pytest.raises(ConfigError, match="worker count"):
        forked_map(str, [1, 2], workers, str)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_in_task_order(workers):
    # later tasks finish first, so a worker's result waits for earlier ones
    def slow_first(task):
        time.sleep(0.02 * (5 - task))
        return task, os.getpid()

    results = list(forked_map(slow_first, range(6), workers, str))
    assert [task for task, _ in results] == list(range(6))
    pids = {pid for _, pid in results}
    if workers == 1:
        assert pids == {os.getpid()}
    elif openblas_thread_controls():
        assert len(pids) == workers and os.getpid() not in pids


def test_no_tasks_fork_no_worker(monkeypatch):
    forked = count_forks(monkeypatch)
    assert list(forked_map(str, iter([]), 4, str)) == []
    assert not forked


@forks
def test_never_more_workers_than_tasks(monkeypatch):
    forked = count_forks(monkeypatch)
    assert list(forked_map(lambda task: task + 1, [1, 2], 4, str)) == [2, 3]
    assert len(forked) == 2


@forks
def test_pulls_tasks_lazily_and_ends_its_workers_when_closed():
    pulled = []

    def tasks():
        for task in itertools.count():
            pulled.append(task)
            yield task

    results = forked_map(lambda task: task * task, tasks(), 2, str)
    assert not pulled
    assert list(itertools.islice(results, 5)) == [0, 1, 4, 9, 16]
    started = time.monotonic()
    results.close()
    assert time.monotonic() - started < 10
    assert not multiprocessing.active_children()


def test_runs_in_process_without_a_thread_setter(monkeypatch, caplog):
    monkeypatch.setattr(workers_module, "openblas_thread_controls", lambda: [])
    forked = count_forks(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="ahmsa.workers"):
        results = list(forked_map(lambda task: (task, os.getpid()), range(3), 2, str))
    assert results == [(task, os.getpid()) for task in range(3)]
    assert not forked
    assert "no OpenBLAS thread setter" in caplog.text


def test_worker_count_is_capped_by_the_environment(monkeypatch):
    monkeypatch.delenv(THREAD_ENV_VAR, raising=False)
    usable = worker_count()
    assert usable >= 1 and worker_count(7) == 7
    monkeypatch.setenv(THREAD_ENV_VAR, "2")
    assert worker_count(7) == 2 and worker_count() == min(usable, 2)
