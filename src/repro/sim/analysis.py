"""Schedule analysis: CPU shares, response times, release jitter.

Post-processes the kernel's task accounting and activation stamps
(from an :class:`~repro.sim.trace.ActivationRecorder` or the
observability bus) into the numbers a real-time engineer asks for:

* per-task CPU utilisation over a window;
* release jitter of periodic tasks (deviation of activation spacing
  from the nominal period);
* response-time statistics (max / mean / percentiles).
"""

from __future__ import annotations


def cpu_shares(kernel, window=None):
    """Per-task CPU share from the TCBs' ``cycles_used`` accounting.

    Returns ``{task_name: fraction_of_total_cycles}`` over the whole
    run (``cycles_used`` is cumulative).  ``window`` (total cycles)
    overrides the denominator; defaults to the clock's current time.
    """
    total = window if window is not None else kernel.clock.now
    if total <= 0:
        return {}
    shares = {}
    for task in kernel.scheduler.tasks.values():
        shares[task.name] = task.cycles_used / total
    return shares


def jitter_stats(stamps, period):
    """Release-jitter statistics of periodic activation ``stamps``.

    Jitter of activation *i* is ``(stamps[i] - stamps[i-1]) - period``.
    Returns a dict with ``count``, ``max_abs``, ``mean_abs``, and
    ``worst_gap`` (the largest raw inter-activation gap); empty stamps
    yield zeros.
    """
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    if not gaps:
        return {"count": 0, "max_abs": 0, "mean_abs": 0.0, "worst_gap": 0}
    jitters = [gap - period for gap in gaps]
    return {
        "count": len(jitters),
        "max_abs": max(abs(j) for j in jitters),
        "mean_abs": sum(abs(j) for j in jitters) / len(jitters),
        "worst_gap": max(gaps),
    }


def response_times(request_stamps, completion_stamps):
    """Pair request/completion stamp streams into response times.

    Streams are matched in order (request *i* completes at completion
    *i*); extra requests without completions are ignored.  Returns a
    dict with ``count``, ``max``, ``mean``, ``p95``.
    """
    pairs = list(zip(request_stamps, completion_stamps))
    times = [done - requested for requested, done in pairs if done >= requested]
    if not times:
        return {"count": 0, "max": 0, "mean": 0.0, "p95": 0}
    ordered = sorted(times)
    p95_index = min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))
    return {
        "count": len(times),
        "max": ordered[-1],
        "mean": sum(times) / len(times),
        "p95": ordered[p95_index],
    }


def utilization_bound_rm(task_count):
    """Liu & Layland's rate-monotonic schedulability bound.

    ``U <= n(2^(1/n) - 1)``; a periodic task set under RM priorities is
    guaranteed schedulable below this utilisation.
    """
    if task_count <= 0:
        return 0.0
    return task_count * (2 ** (1.0 / task_count) - 1)
