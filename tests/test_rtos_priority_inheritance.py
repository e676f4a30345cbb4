"""End-to-end priority inheritance: the classic inversion scenario.

Low-priority task L holds a mutex; high-priority task H blocks on it
while medium-priority task M grinds CPU.  Without inheritance M starves
L, unboundedly delaying H (the Mars Pathfinder bug).  With inheritance
L runs at H's priority until it releases, so H's wait is bounded by
L's critical section - which is what the kernel must deliver.
"""

from repro.rtos.sync import CountingSemaphore, Mutex
from repro.rtos.task import NativeCall


def build_inversion_scenario(kernel):
    """Returns (mutex, log, tasks) with the L/M/H structure."""
    mutex = Mutex()
    log = []

    def low(k, task):
        assert k.mutex_take(task, mutex)
        log.append(("L", "locked", k.clock.now))
        # Long critical section, chunked (preemptible).
        for _ in range(10):
            yield NativeCall.charge(3_000)
        k.mutex_release(task, mutex)
        log.append(("L", "released", k.clock.now))
        return None

    def medium(k, task):
        yield NativeCall.delay_cycles(2_000)  # let L take the lock
        log.append(("M", "grinding", k.clock.now))
        for _ in range(100):
            yield NativeCall.charge(3_000)
        log.append(("M", "done", k.clock.now))

    def high(k, task):
        yield NativeCall.delay_cycles(4_000)  # arrive after M started
        log.append(("H", "wants-lock", k.clock.now))
        while not k.mutex_take(task, mutex):
            yield NativeCall.block(mutex.wait_token)
        log.append(("H", "locked", k.clock.now))
        k.mutex_release(task, mutex)

    tasks = {
        "L": kernel.create_native_task("L", 1, low),
        "M": kernel.create_native_task("M", 3, medium),
        "H": kernel.create_native_task("H", 5, high),
    }
    return mutex, log, tasks


def stamp(log, who, what):
    for name, event, at in log:
        if name == who and event == what:
            return at
    raise AssertionError("no %s/%s in %r" % (who, what, log))


class TestPriorityInheritance:
    def test_high_waits_only_for_critical_section(self, baseline):
        platform, kernel, loader = baseline
        mutex, log, tasks = build_inversion_scenario(kernel)
        kernel.run(max_cycles=1_000_000)
        wants = stamp(log, "H", "wants-lock")
        locked = stamp(log, "H", "locked")
        released = stamp(log, "L", "released")
        # H acquires as soon as L releases...
        assert locked - released < 5_000
        # ...and L's remaining critical section (~30k) bounds the wait:
        # with inheritance H waits ~26k; without, M's 300k grind would
        # sit in between.
        assert locked - wants < 60_000
        # M finished *after* H got the lock (it did not starve L).
        assert stamp(log, "M", "done") > locked

    def test_holder_boosted_then_restored(self, baseline):
        platform, kernel, loader = baseline
        mutex, log, tasks = build_inversion_scenario(kernel)
        boosts = []
        kernel.obs.subscribe(
            lambda event: boosts.append((event.kind, event.data))
            if event.kind in ("priority-inherit", "priority-restore")
            else None
        )
        kernel.run(max_cycles=1_000_000)
        kinds = [kind for kind, _ in boosts]
        assert "priority-inherit" in kinds
        assert "priority-restore" in kinds
        for kind, data in boosts:
            if kind == "priority-inherit":
                assert data["boosted_to"] == 5
            if kind == "priority-restore":
                assert data["to"] == 1


class TestSemaphoreKernelOps:
    def test_producer_consumer_with_semaphore(self, baseline):
        platform, kernel, loader = baseline
        items = CountingSemaphore(initial=0)
        produced = []
        consumed = []

        def producer(k, task):
            for index in range(5):
                yield NativeCall.delay_cycles(3_000)
                produced.append(index)
                k.sem_give(task, items)

        def consumer(k, task):
            while len(consumed) < 5:
                if k.sem_take(task, items):
                    consumed.append(len(consumed))
                else:
                    yield NativeCall.block(items.wait_token)

        kernel.create_native_task("consumer", 4, consumer)
        kernel.create_native_task("producer", 2, producer)
        kernel.run(max_cycles=500_000)
        assert consumed == [0, 1, 2, 3, 4]

    def test_give_at_max_wakes_nobody(self, baseline):
        platform, kernel, loader = baseline
        sem = CountingSemaphore(initial=1, maximum=1)
        woken = []

        def sleeper(k, task):
            # Not actually waiting on the semaphore; should stay asleep.
            yield NativeCall.block(sem.wait_token)
            woken.append(task.name)

        def giver(k, task):
            yield NativeCall.delay_cycles(1_000)
            k.sem_give(task, sem)  # count already at max: no wake
            yield NativeCall.delay_cycles(1_000)

        kernel.create_native_task("sleeper", 3, sleeper)
        kernel.create_native_task("giver", 2, giver)
        kernel.run(max_cycles=100_000)
        assert woken == []
