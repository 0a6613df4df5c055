"""Tests of ``Environment.sleep``: the allocation-free process delay."""

import pytest

from repro.sim.engine import Environment
from repro.sim.events import Interrupt


def test_sleep_advances_the_clock_and_resumes_with_none():
    env = Environment()
    seen = []

    def sleeper(env):
        value = yield env.sleep(7)
        seen.append((env.now, value))
        yield env.sleep(0)
        seen.append((env.now, None))

    env.process(sleeper(env))
    env.run()
    assert seen == [(7, None), (7, None)]


def test_sleeping_process_has_no_target():
    env = Environment()

    def sleeper(env):
        yield env.sleep(5)

    process = env.process(sleeper(env))
    env.run(until=1)
    assert process.is_alive
    assert process.target is None


def test_interrupted_sleep_does_not_wake_the_next_sleep():
    # the wake-up of the interrupted sleep(10) is still queued for t=10;
    # it must not end the following sleep(100) early
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.sleep(10)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.sleep(100)
        log.append(("done", env.now))

    def interrupter(env, victim):
        yield env.sleep(5)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 5), ("done", 105)]


def test_same_instant_sleep_and_timeout_fire_in_insertion_order():
    env = Environment()
    order = []

    def by_sleep(env, name):
        yield env.sleep(5)
        order.append(name)

    def by_timeout(env, name):
        yield env.timeout(5)
        order.append(name)

    env.process(by_sleep(env, "a"))
    env.process(by_timeout(env, "b"))
    env.process(by_sleep(env, "c"))
    env.process(by_timeout(env, "d"))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_sleep_takes_one_sequence_number_like_timeout():
    def run(wait):
        env = Environment()

        def proc(env):
            for _ in range(3):
                yield wait(env)

        env.process(proc(env))
        env.run()
        return env._eid, env.now

    assert run(lambda env: env.sleep(2)) == run(lambda env: env.timeout(2))


def test_sleep_outside_a_process_raises_runtime_error():
    env = Environment()
    with pytest.raises(RuntimeError, match="outside a running process"):
        env.sleep(1)


def test_negative_sleep_raises_value_error():
    env = Environment()
    caught = []

    def proc(env):
        try:
            env.sleep(-1)
        except ValueError as exc:
            caught.append(str(exc))
        yield env.sleep(1)

    env.process(proc(env))
    env.run()
    assert caught == ["negative delay -1"]
    assert env.now == 1
