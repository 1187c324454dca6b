"""Vectorized fast path for the edge serving simulator.

:class:`~repro.edge.server.EdgeServerSimulator` models every frame as a
pair of :class:`~repro.edge.events.EventLoop` callbacks, which makes
100-run serving campaigns the dominant wall-clock cost of the paper's
evaluation. Between boundaries — policy decision ticks and, under fault
injection, reconfiguration retries — the server's evolution is
closed-form per segment, so this module replays the exact same dynamics
as chunked NumPy work:

* all per-frame RNG draws for a run are materialized with **one**
  ``Generator.random`` call (the event loop's ``rng.choice`` /
  ``rng.random`` pairs consume one uniform each, in service order, so a
  flat pre-drawn array indexed by stream position reproduces the stream
  bit-for-bit — over-drawing is harmless because the generator is
  private to the run);
* per-segment exit sampling, service-latency lookup and correctness
  sampling are batched array operations (``searchsorted`` over the exit
  CDF, ``take`` over the exit latencies, a vectorized threshold compare);
* arrival-window sampling feeds the :class:`WorkloadMonitor` in one
  ``observe_many`` call per decision tick;
* latency accumulation uses ``np.cumsum`` (sequential left-to-right
  accumulation, bit-identical to the event loop's ``+=`` chain), and
  power integration stays per-tick scalar work exactly as before.

The bounded-queue admission / single-server start-time recursion is a
**busy-period scan** (:class:`_SerialKernel`): within a busy period the
completions are a sequential prefix sum seeded with the period's start
— the event loop's ``max`` and one addition per frame, bit for bit —
a max-plus closed form finds every period start of a chunk of
arrivals in one pass (rechecked against the exact chains), queue
lengths follow from ``searchsorted`` over the start times, and a period
that turns frames away is finished by an exact integer recursion. So
completions, queue-full losses, sheds and end-of-run in-flight frames
are decided identically with no per-frame Python work. Runs with
transient inference errors or micro-batching keep a per-frame admission
loop (:class:`_SerialRetryKernel`, :class:`_BatchKernel`).

Boundaries are **lazy** for the scan: without brownout a decision tick
never reads the queue, so :func:`run_fast` serves the kernel only when a
tick changes its entry or reconfiguration deadline, at retries and at
the horizon; the ticks in between are handed to the kernel, which
checks its completions against them.

Fault campaigns (:mod:`repro.runtime.faults`) replay the run's
:class:`~repro.runtime.faults.FaultPlan` decision for decision:

* spike arrivals are merged into the workload before the run, and every
  ingress drop is decided up front in one draw
  (:meth:`FaultPlan.drop_mask`) — dropped frames never reach the queue
  or the monitor;
* each reconfiguration attempt goes through
  :meth:`FaultPlan.reconfig_outcome` and
  :meth:`ReconfigurationController.attempt_switch` at its boundary; a
  failed attempt schedules its retry (``now + dead + backoff``) as one
  more segment boundary, and an exhausted budget degrades through
  ``policy.select_without_reconfig``;
* transient inference errors are decided when a frame starts (its
  completion time is known then), consuming the inference stream in
  completion order; a failed frame returns to the queue head at its
  completion, and the main stream is read through a position pointer
  because a failed completion draws no correctness uniform.

The event loop remains the semantics oracle (the same relationship as
:mod:`repro.ir.executors` vs :mod:`repro.ir.engine`): ``run_fast``
returns ``None`` whenever it cannot *prove* equivalence and the caller
falls back to event mode. That is an exact event-time tie on a
boundary: a completion, service start, or reconfiguration-resume
landing on a decision tick (served or not) or retry timestamp, or a
retry landing on a tick, where the outcome depends on event-loop
scheduling order.

``SIM_MODES`` enumerates the ``ServerConfig.sim_mode`` values:
``"auto"``/``"vector"`` use this fast path when sound, ``"event"``
forces the oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

import numpy as np

from ..runtime.monitor import WorkloadMonitor
from ..runtime.reconfig import ReconfigurationController
from .metrics import RunMetrics

__all__ = ["SIM_MODES", "run_fast"]

#: Accepted ``ServerConfig.sim_mode`` values.
SIM_MODES = ("auto", "event", "vector")

#: numpy's probability-sum tolerance for ``Generator.choice``.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

_NEG_INF = float("-inf")
_INF = float("inf")

#: Arrivals per step of the serial kernel's scan: bounds its temporary
#: arrays however long a segment runs.
_CHUNK = 4096

#: Busy-period positions the scan advances in lockstep across periods;
#: the few longer periods finish with one cumsum each.
_LOCKSTEP = 16


def _exit_cdf(exit_rates) -> np.ndarray:
    """The CDF ``Generator.choice(len(p), p=p)`` samples against.

    Mirrors numpy's internal computation (cumsum then normalize by the
    last element) including its sum-to-one validation, so both paths
    accept and reject the same entries and map uniforms to identical
    exit indices.
    """
    p = np.ascontiguousarray(exit_rates, dtype=np.float64)
    if abs(float(p.sum()) - 1.0) > _P_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _tick_times(cfg, duration: float) -> list:
    """Decision-tick schedule.

    The event loop reschedules relative to the current tick, so tick
    times are a float *accumulation*, not k*dt. The first tick carries
    the coordinator's stagger offset, with the event loop's exact float
    ops (now=0.0 plus the combined delay).
    """
    ticks: list[float] = []
    t = 0.0 + (cfg.decision_offset_s + cfg.decision_interval_s)
    if t <= duration:
        while True:
            ticks.append(t)
            if t + cfg.decision_interval_s < duration:
                t = t + cfg.decision_interval_s
            else:
                break
    return ticks


def _served_arrivals(sim, plan):
    """``(arrivals reaching the server, total requests, dropped)``.

    Spike arrivals are merged exactly as the event loop merges them;
    drops are decided for every arrival the event loop would fire (those
    at or before the horizon), in arrival order.
    """
    arrivals = sim._arrival_times()
    if plan is None:
        return arrivals, len(arrivals), 0
    duration = sim.workload.duration_s
    extra = plan.spike_arrivals(duration, sim.workload.nominal_ips)
    if len(extra):
        arrivals = np.sort(np.concatenate([arrivals, extra]))
    total = len(arrivals)
    hi = int(np.searchsorted(arrivals, duration, side="right"))
    drop = plan.drop_mask(arrivals[:hi])
    dropped = int(np.count_nonzero(drop))
    if dropped:
        arrivals = np.concatenate([arrivals[:hi][~drop], arrivals[hi:]])
    return arrivals, total, dropped


def _inference_errors(plan) -> bool:
    """Whether a run's fault plan can fail an inference."""
    return plan is not None and plan.spec.inference_error_prob > 0.0


class _Kernel:
    """Queue and server state of one run, advanced segment by segment.

    A segment ends at a boundary — a decision tick, a reconfiguration
    retry, or the horizon — where :func:`run_fast` may change
    ``entry``, ``reconfig_until`` and ``shedding``. Subclasses implement
    :meth:`serve` for one queue discipline; it admits arrivals and runs
    services with start times up to the boundary and returns ``False``
    on an exact event-time tie with it. ``plan`` is the run's fault plan
    (``None`` when fault-free); only its inference errors reach the
    kernel. A ``lazy`` kernel may be served across several decision
    ticks at once: it checks the ticks queued in ``skipped`` for ties.
    """

    lazy = False

    def __init__(self, sim, arrivals: np.ndarray, plan):
        cfg = sim.config
        self.arrivals = arrivals
        self.duration = sim.workload.duration_s
        self.capacity = cfg.queue_capacity
        self.shed_len = cfg.shed_queue_len
        self.shedding = False   # bottom brownout rung: admission sheds
        self.entry = None
        self.c_last = _NEG_INF  # completion time of the last start
        self.reconfig_until = 0.0
        self.ai = 0             # next arrival index to admit
        self.processed = 0
        self.lost = 0
        self.shed = 0
        self.failed = 0
        self.retries = 0
        self.batches = 0
        self.correct = 0        # integer-exact accuracy_sum
        self.latencies: list[float] = []  # in completion order
        if _inference_errors(plan):
            spec = plan.spec
            self.budget = spec.inference_retries
            self.err_from = spec.active_from_s
            self.err_until = _INF if spec.active_until_s is None \
                else spec.active_until_s
            # Every frame is served at most budget + 1 times, so this
            # block covers every inference decision of the run.
            self.err_hits = plan.inference_errors(
                len(arrivals) * (self.budget + 1)).tolist()
        else:
            # No inference errors: an empty error window.
            self.budget = 0
            self.err_from = self.err_until = _INF
            self.err_hits = []
        self.ei = 0  # inference decisions consumed
        # Every service consumes at most two uniforms of the main
        # stream (exit choice, correctness).
        self.draws = np.random.default_rng(sim.seed + 777).random(
            2 * len(arrivals) * (self.budget + 1) + 2)

    def set_entry(self, entry) -> None:
        self.entry = entry

    def queued(self) -> int:
        """Frames waiting in the queue (excludes the one in service)."""
        raise NotImplementedError

    def in_flight(self) -> int:
        """Frames in service at the horizon (no terminal state)."""
        raise NotImplementedError

    def latency_sum(self) -> float:
        """Sum of recorded latencies, in completion order."""
        # cumsum is a sequential left-to-right accumulation,
        # bit-identical to the event loop's `latency_sum += service`.
        if not self.latencies:
            return 0.0
        return float(np.cumsum(np.asarray(self.latencies))[-1])


class _SerialKernel(_Kernel):
    """One frame per accelerator invocation, no inference errors.

    The event loop draws one uniform at each service start (the exit
    choice) and one at each completion (the correctness sample),
    strictly alternating in service order; at most ``n`` frames are ever
    served, so 2n uniforms cover every draw it can consume. Frame ``f``
    of the run (in start order) therefore always reads uniform pair
    ``f``, whichever arrivals end up admitted — which is what lets
    :meth:`serve` run the admission recursion as array work.

    Write ``a'`` for ``max(arrival, reconfig_until)``, ``s``/``c`` for a
    frame's start/completion. Frame ``f`` starts at
    ``s_f = max(a'_f, c_{f-1})``, opening a *busy period* when
    ``a'_f > c_{f-1}`` (an *idle* start when its arrival is the
    maximum) and continuing one otherwise. An arrival sees
    ``N - K`` queued frames, ``N`` frames admitted before it and ``K``
    of them started strictly before it (idle starts included, as they
    start inside their own arrival event), and is refused at
    ``N - K >= L`` — ``L`` the shedding length on the bottom brownout
    rung, else the capacity. :meth:`serve` scans a segment's arrivals
    in chunks of at most ``_CHUNK``:

    * optimistically assuming the chunk admits every arrival, the
      max-plus closed form ``c_k ~ S_k + max(c_prev, max_{j<=k}(a'_j -
      S_{j-1}))`` (``S`` the cumsum of service times) locates every
      busy-period start at once; each period's chain is then recomputed
      exactly as a sequential prefix sum seeded with its start
      (:func:`_chain`: the event loop's ``max``/``+`` chain, addition
      by addition) and every start/continuation is checked against the
      exact chain — the chunk is cut at the first check that fails;
    * queue lengths then follow from ``searchsorted`` of the arrival
      times into the exact start times; the chunk is committed up to
      the first refused arrival;
    * the busy period holding that refusal is finished by the integer
      recursion ``N_{j+1} = min(N_j + 1, L + K_j)`` (arrivals meeting a
      queue already above ``L`` refused first), solved with
      ``np.minimum.accumulate``: within a busy period the chain of
      completions does not depend on which arrivals are admitted. The
      period ends at the first arrival with ``c_{N_j - 1} < a'_j``,
      where the optimistic scan resumes.
    """

    lazy = True

    def __init__(self, sim, arrivals, plan):
        super().__init__(sim, arrivals, plan)
        self.u_choice = self.draws[0::2]
        self.u_correct = self.draws[1::2]
        self.qlen = 0     # admitted frames waiting (excludes in-service)
        self.started = 0  # frames started == RNG pairs consumed
        self.lat_sum = 0.0
        # Decision ticks passed since the last serve call: a completion
        # landing exactly on one is an event-order tie.
        self.skipped: list = []

    def queued(self) -> int:
        return self.qlen

    def in_flight(self) -> int:
        return 1 if self.c_last > self.duration else 0

    def latency_sum(self) -> float:
        return self.lat_sum

    def serve(self, t_end: float, is_tick: bool) -> bool:
        arrivals = self.arrivals
        j = self.ai
        hi = int(np.searchsorted(arrivals, t_end, side="right"))
        c_last = self.c_last
        # A completion exactly on a tick — skipped or this boundary — is
        # an event-order tie; any start on the boundary other than an
        # idle one then comes from that completion (or from a resume
        # the caller declines), so starts up to t_end inclusive are safe.
        ties = self.skipped + [t_end] if is_tick else self.skipped
        self.skipped = []
        if c_last in ties:
            return False
        ticks = np.asarray(ties) if ties else None
        q = self.qlen
        if not q and j == hi:
            return True
        duration = self.duration
        reconfig_until = self.reconfig_until
        limit = self.shed_len if self.shedding else self.capacity
        entry = self.entry
        accuracy = entry.accuracy
        base = self.started
        u_choice = self.u_choice
        u_correct = self.u_correct
        cdf = _exit_cdf(entry.exit_rates)
        if entry.exit_latencies_s:
            lat = np.asarray(entry.exit_latencies_s, dtype=np.float64)
        else:
            lat = None
            const = entry.latency_s

        def services(f0: int, f1: int) -> np.ndarray:
            """Service times of segment frames ``f0..f1-1`` (position-
            indexed uniforms: recomputing a frame is side-effect free)."""
            if lat is None:
                return np.full(f1 - f0, const)
            return lat[cdf.searchsorted(u_choice[base + f0:base + f1],
                                        side="right")]

        started = 0       # segment frames started
        processed = self.processed
        correct = self.correct
        lat_sum = self.lat_sum

        def commit(f0: int, s, c, x) -> bool:
            """Account frames ``f0..`` (exact ``s``/``c``) that start by
            the boundary; ``False`` on a tick tie."""
            nonlocal started, processed, correct, lat_sum, c_last
            # Starts are sorted across blocks: once one frame stays
            # queued, every later block starts nothing.
            k = int(np.searchsorted(s, t_end, side="right"))
            if not k:
                return True
            started += k
            cs = c[:k]
            c_last = float(cs[-1])
            # Completion events at or before the horizon always fire; a
            # later one leaves its frame in flight (exit draw consumed).
            done = int(np.searchsorted(cs, duration, side="right"))
            if done:
                processed += done
                lat_sum = float(np.cumsum(
                    np.concatenate(([lat_sum], x[:done])))[-1])
                lo = base + f0
                correct += int(np.count_nonzero(
                    u_correct[lo:lo + done] < accuracy))
            if ticks is not None:
                pos = np.searchsorted(cs, ticks)
                inside = pos < k
                if np.any(cs[pos[inside]] == ticks[inside]):
                    return False
            return True

        refused = 0
        frames = q        # segment frames admitted (carried queue first)
        c_prev = c_last   # completion of the last admitted frame
        k0 = 0            # frames counted as started by every later arrival
        tail_s = np.empty(0)              # starts of frames k0..frames-1
        tail_idle = np.zeros(0, dtype=bool)
        if q:
            # The carried queue continues one chain from the first start.
            sigma = c_last if c_last >= reconfig_until else reconfig_until
            x = services(0, q)
            c = x.copy()
            c[0] += sigma
            np.cumsum(c, out=c)
            tail_s = np.concatenate(([sigma], c[:-1]))
            tail_idle = np.zeros(q, dtype=bool)
            if not commit(0, tail_s, c, x):
                return False
            c_prev = float(c[-1])

        refusing = False
        while j < hi:
            t = arrivals[j:min(hi, j + _CHUNK)]
            w = len(t)
            x = services(frames, frames + w)
            if refusing:
                # Inside a busy period holding a refusal: the chain of
                # the next w frames is fixed whichever arrivals join.
                c = x.copy()
                c[0] += c_prev
                np.cumsum(c, out=c)
                s = np.concatenate(([c_prev], c[:-1]))
                idle = np.zeros(w, dtype=bool)
                s_all = np.concatenate((tail_s, s))
                idle_all = np.concatenate((tail_idle, idle))
                kk = k0 + _started_before(s_all, idle_all, t)
                n = np.full(w + 1, frames)
                # Arrivals meeting a queue at or above the limit (it
                # can start above it when shedding switches on) are
                # refused until enough frames have started.
                p = int(np.searchsorted(kk, frames - limit, side="right"))
                if p < w:
                    d = kk[p:] + (limit - 1) - np.arange(w - p)
                    n[p:] = np.minimum.accumulate(
                        np.concatenate(([frames], d))) \
                        + np.arange(w - p + 1)
                ends = np.concatenate(([c_prev], c))[n[:w] - frames] < t
                used = int(np.argmax(ends)) if ends.any() else w
                admitted = int(n[used]) - frames
                refused += used - admitted
                # Past the period's end the server has idled: every
                # admitted frame started, and the optimistic scan resumes.
                refusing = used == w
                k_last = int(kk[-1]) if refusing else frames + admitted
            else:
                # Optimistic: every arrival of the chunk admitted.
                a = np.maximum(t, reconfig_until)
                cums = np.cumsum(x)
                d = a.copy()
                d[1:] -= cums[:-1]
                run_max = np.maximum.accumulate(d)
                prev = np.empty(w)
                prev[0] = c_prev
                np.maximum(run_max[:-1], c_prev, out=prev[1:])
                head = d > prev  # approximate busy-period starts
                c = x.copy()
                c[head] += a[head]
                if not head[0]:
                    c[0] += c_prev
                bounds = np.flatnonzero(head)
                if not head[0]:
                    bounds = np.concatenate(([0], bounds))
                _chain(c, bounds, np.diff(np.append(bounds, w)))
                prev[1:] = c[:-1]  # exact now: check every classification
                bad = (a > prev) != head
                if bad.any():
                    w = int(np.argmax(bad))  # >= 1: frame 0 is exact
                    t, a, x, c, prev, head = (
                        t[:w], a[:w], x[:w], c[:w], prev[:w], head[:w])
                s = np.where(head, a, prev)
                idle = head & (t >= reconfig_until)
                s_all = np.concatenate((tail_s, s))
                idle_all = np.concatenate((tail_idle, idle))
                kk = k0 + _started_before(s_all, idle_all, t)
                over = (frames + np.arange(w)) - kk >= limit
                used = admitted = int(np.argmax(over)) if over.any() else w
                refusing = used < w
                k_last = int(kk[used - 1]) if used else k0
            if not commit(frames, s[:admitted], c[:admitted],
                          x[:admitted]):
                return False
            if admitted:
                c_prev = float(c[admitted - 1])
            # Frames k_last.. may still start after the next arrival.
            keep = slice(k_last - k0, frames + admitted - k0)
            tail_s = s_all[keep]
            tail_idle = idle_all[keep]
            k0 = k_last
            frames += admitted
            j += used

        self.qlen = frames - started
        self.ai = j
        self.c_last = c_last
        self.started = base + started
        self.processed = processed
        self.correct = correct
        self.lat_sum = lat_sum
        if self.shedding:
            self.shed += refused
        else:
            self.lost += refused
        return True


def _chain(c, heads, lengths) -> None:
    """Turn ``c`` into completion times, in place: each busy period
    ``heads[i]:heads[i] + lengths[i]`` holds its first completion then
    its service times, and becomes their sequential prefix sums (the
    event loop's ``+=`` chain, addition by addition)."""
    more = lengths > 1
    heads, lengths = heads[more], lengths[more]
    k = 1
    while len(heads) and k < _LOCKSTEP:
        # Position k of every period still running, all at once.
        at = heads + k
        c[at] += c[at - 1]
        k += 1
        more = lengths > k
        heads, lengths = heads[more], lengths[more]
    for h, n in zip(heads.tolist(), lengths.tolist()):
        rest = c[h + k - 1:h + n]
        rest.cumsum(out=rest)


def _started_before(s_all, idle_all, t) -> np.ndarray:
    """Per arrival time, how many of the frames with (sorted) start times
    ``s_all`` it finds started: those starting strictly before it, plus
    an idle start at the same instant, whose own arrival event fired
    first. An arrival's own idle start counts too: it then finds -1
    frames queued instead of 0, the same admission."""
    p = np.searchsorted(s_all, t, side="left")
    if len(s_all):
        at = np.minimum(p, len(s_all) - 1)
        p = p + ((s_all[at] == t) & idle_all[at] & (p < len(s_all)))
    return p


class _SerialRetryKernel(_Kernel):
    """One frame per invocation under transient inference errors.

    A frame whose completion fails is decided at its start: it stays in
    service until its completion (``pend``), then returns to the queue
    head with ``attempts + 1`` — at most one such frame exists, and it
    is always the next to start. Exit choice and correctness share one
    stream read through a position pointer, because a failed completion
    draws no correctness uniform.
    """

    def __init__(self, sim, arrivals, plan):
        super().__init__(sim, arrivals, plan)
        self.arr_list = arrivals.tolist()
        self.draw_list = self.draws.tolist()
        self.p = 0          # next unconsumed position in the main stream
        self.qlen = 0
        self.head_att = 0   # attempts of the queue head
        self.pend = False   # the frame in service returns to the queue
        self.pend_att = 0

    def queued(self) -> int:
        return self.qlen

    def in_flight(self) -> int:
        return 1 if self.c_last > self.duration else 0

    def serve(self, t_end: float, is_tick: bool) -> bool:
        entry = self.entry
        arr_list = self.arr_list
        duration = self.duration
        capacity = self.capacity
        shedding = self.shedding
        shed_len = self.shed_len
        reconfig_until = self.reconfig_until
        served_latencies = self.latencies
        draws = self.draw_list
        err_hits = self.err_hits
        err_from = self.err_from
        err_until = self.err_until
        budget = self.budget
        qlen = self.qlen
        head_att = self.head_att
        pend = self.pend
        pend_att = self.pend_att
        ai = self.ai
        c_last = self.c_last
        p = self.p
        ei = self.ei
        processed = self.processed
        correct = self.correct
        failed = 0
        retries = 0
        lost = 0
        shed = 0
        hi = int(np.searchsorted(self.arrivals, t_end, side="right"))

        cdf = lat = None
        const = entry.latency_s
        accuracy = entry.accuracy
        if qlen or pend or hi > ai:
            if entry.exit_latencies_s:
                cdf = _exit_cdf(entry.exit_rates).tolist()
                lat = list(entry.exit_latencies_s)
            else:
                _exit_cdf(entry.exit_rates)  # same validation as choice

        def start_frame(sigma: float, attempts: int) -> None:
            nonlocal c_last, p, ei, processed, correct, failed, retries, \
                pend, pend_att
            u = draws[p]
            p += 1
            service = lat[bisect_right(cdf, u)] if cdf is not None \
                else const
            c_last = sigma + service
            if c_last > duration:
                return  # in flight at the horizon: no completion
            if err_from <= c_last < err_until:
                ei += 1
                if err_hits[ei - 1]:
                    # Service time burned; back to the queue head at
                    # c_last until the budget runs out.
                    if attempts < budget:
                        retries += 1
                        pend = True
                        pend_att = attempts + 1
                    else:
                        failed += 1
                    return
            processed += 1
            served_latencies.append(service)
            if draws[p] < accuracy:
                correct += 1
            p += 1

        while ai < hi:
            t_arr = arr_list[ai]
            ai += 1
            while qlen or pend:
                sigma = c_last if c_last >= reconfig_until \
                    else reconfig_until
                if sigma >= t_arr:
                    break
                if pend:
                    pend = False
                    qlen += 1
                    head_att = pend_att
                qlen -= 1
                attempts = head_att
                head_att = 0
                start_frame(sigma, attempts)
            if pend and c_last < t_arr:
                # The failed frame completed before this arrival and
                # waits at the queue head (reconfiguration dead time).
                pend = False
                qlen += 1
                head_att = pend_att
            if shedding and qlen >= shed_len:
                shed += 1
            elif qlen >= capacity:
                lost += 1
            elif qlen == 0 and c_last < t_arr \
                    and reconfig_until <= t_arr:
                start_frame(t_arr, 0)
            else:
                qlen += 1
        while qlen or pend:
            sigma = c_last if c_last >= reconfig_until else reconfig_until
            if sigma > t_end or (is_tick and sigma == t_end):
                break
            if pend:
                pend = False
                qlen += 1
                head_att = pend_att
            qlen -= 1
            attempts = head_att
            head_att = 0
            start_frame(sigma, attempts)
        if pend and c_last <= t_end:
            pend = False
            qlen += 1
            head_att = pend_att
        if is_tick and qlen and sigma == t_end:
            return False

        self.qlen = qlen
        self.head_att = head_att
        self.pend = pend
        self.pend_att = pend_att
        self.ai = ai
        self.c_last = c_last
        self.p = p
        self.ei = ei
        self.processed = processed
        self.correct = correct
        self.failed += failed
        self.retries += retries
        self.lost += lost
        self.shed += shed
        return True


class _BatchKernel(_Kernel):
    """Micro-batched admission, with or without inference errors.

    Queue items are ``(arrival_time, attempts)`` (batch membership is an
    arrival-window condition) and the RNG stream is consumed
    batch-granularly: a batch of ``k`` frames draws ``k`` exit uniforms
    at its start and — only if its completion event fires within the
    horizon — one correctness uniform per frame that did not fail, at
    its completion, exactly the order the batched event path consumes
    them (no other draw interleaves between a batch's start and its
    completion, because the single server starts the next batch only
    from the completion callback). Inside the error window every frame
    of a completing batch consumes one inference decision; failed frames
    wait in ``retry`` until the batch's completion, then return to the
    queue head in arrival order. Without inference errors the window is
    empty and ``retry`` stays empty.
    """

    def __init__(self, sim, arrivals, plan):
        super().__init__(sim, arrivals, plan)
        cfg = sim.config
        self.arr_list = arrivals.tolist()
        self.batch_window = cfg.batch_window_s
        self.overhead = cfg.dispatch_overhead_s
        self.pend: deque = deque()  # queued frames
        self.retry: list = []       # failed frames of the last batch
        self.p = 0                  # next unconsumed stream position
        self.k_last = 0             # size of the last started batch
        self.tables = None

    def set_entry(self, entry) -> None:
        # Sampling tables are built lazily at the first batch start of a
        # segment — the moment the event path first validates the
        # entry's exit distribution.
        self.entry = entry
        self.tables = None

    def _tables(self):
        if self.tables is None:
            entry = self.entry
            if entry.exit_latencies_s:
                self.tables = (_exit_cdf(entry.exit_rates),
                               np.asarray(entry.exit_latencies_s,
                                          dtype=np.float64), 0.0)
            else:
                _exit_cdf(entry.exit_rates)  # same validation as choice
                self.tables = (None, None, entry.latency_s)
        return self.tables

    def _services(self, k: int) -> list:
        """Exit-path service times of the next ``k`` frames started."""
        cdf, lat, const = self._tables()
        uc = self.draws[self.p:self.p + k]
        self.p += k
        if cdf is not None:
            return lat[cdf.searchsorted(uc, side="right")].tolist()
        return [const] * k

    def queued(self) -> int:
        return len(self.pend)

    def in_flight(self) -> int:
        return self.k_last if self.c_last > self.duration else 0

    def start_batch(self, sigma: float) -> float:
        """Start one plan invocation at ``sigma``: the queue head plus
        every queued frame within ``batch_window`` of its arrival.
        Returns the invocation's completion time."""
        pend = self.pend
        retry = self.retry
        if retry:
            # The previous batch completed: its failed frames are back
            # at the head, in arrival order.
            pend.extendleft(reversed(retry))
            retry.clear()
        head = pend.popleft()
        batch = [head]
        window_end = head[0] + self.batch_window
        while pend and pend[0][0] <= window_end:
            batch.append(pend.popleft())
        k = len(batch)
        services = self._services(k)
        overhead = self.overhead
        total = overhead
        for service in services:
            total += service
        self.c_last = c_last = sigma + total
        self.k_last = k
        if c_last > self.duration:
            # In flight at the horizon — exit draws consumed, no
            # completion, no terminal state.
            return c_last
        # The completion event fires: settle the whole batch. The
        # correctness draws sit right after the exit draws in the
        # stream, as the event path's completion callback consumes them.
        self.batches += 1
        share = overhead / k
        accuracy = self.entry.accuracy
        draws = self.draws
        latencies = self.latencies
        p = self.p
        correct = 0
        processed = 0
        active = self.err_from <= c_last < self.err_until
        for (arrival_t, attempts), service in zip(batch, services):
            if active:
                self.ei += 1
                if self.err_hits[self.ei - 1]:
                    if attempts < self.budget:
                        self.retries += 1
                        retry.append((arrival_t, attempts + 1))
                    else:
                        self.failed += 1
                    continue
            processed += 1
            latencies.append(service + share)
            if draws[p] < accuracy:
                correct += 1
            p += 1
        self.p = p
        self.correct += correct
        self.processed += processed
        return c_last

    def _requeue(self, t: float, strict: bool) -> None:
        """Return failed frames to the head once their batch completed
        (strictly before ``t`` for an arrival, which fires before a
        completion at the same instant)."""
        if self.retry and (self.c_last < t or
                           (not strict and self.c_last == t)):
            self.pend.extendleft(reversed(self.retry))
            self.retry.clear()

    def serve(self, t_end: float, is_tick: bool) -> bool:
        pend = self.pend
        retry = self.retry
        arr_list = self.arr_list
        capacity = self.capacity
        shedding = self.shedding
        shed_len = self.shed_len
        reconfig_until = self.reconfig_until
        start_batch = self.start_batch
        c_last = self.c_last
        lost = 0
        shed = 0
        ai = self.ai
        hi = int(np.searchsorted(self.arrivals, t_end, side="right"))
        while ai < hi:
            t_arr = arr_list[ai]
            ai += 1
            while pend or retry:
                sigma = c_last if c_last >= reconfig_until \
                    else reconfig_until
                if sigma >= t_arr:
                    break
                c_last = start_batch(sigma)
            self._requeue(t_arr, strict=True)
            if shedding and len(pend) >= shed_len:
                shed += 1  # bottom-rung admission control
            elif len(pend) >= capacity:
                lost += 1
            elif not pend and c_last < t_arr \
                    and reconfig_until <= t_arr:
                pend.append((t_arr, 0))
                c_last = start_batch(t_arr)  # idle: a batch of itself
            else:
                pend.append((t_arr, 0))
        self.ai = ai
        while pend or retry:
            sigma = c_last if c_last >= reconfig_until else reconfig_until
            if sigma > t_end or (is_tick and sigma == t_end):
                break
            c_last = start_batch(sigma)
        self._requeue(t_end, strict=False)
        if is_tick and pend and sigma == t_end:
            return False  # tie: start ordering depends on event seqs
        self.lost += lost
        self.shed += shed
        return True


class _ReconfigReplay:
    """The event loop's ``attempt_reconfig`` under a fault plan.

    Each attempt asks the plan for its outcome and the controller for
    the swap; a failure within the retry budget leaves ``retry_at`` set
    to the next attempt's time (one more segment boundary for
    :func:`run_fast`), an exhausted budget degrades in place.
    """

    def __init__(self, plan, controller, policy):
        self.plan = plan
        self.spec = plan.spec
        self.controller = controller
        self.degrade = getattr(policy, "select_without_reconfig", None)
        self.inflight = False
        self.retry_at = _INF
        self.target = None
        self.next_attempt = 0
        self.failures = 0
        self.retries = 0
        self.dead_time_s = 0.0

    def attempt(self, selected, attempt: int, now: float, entry,
                kernel: _Kernel):
        """One attempt at ``now``; returns the deployed entry after it."""
        controller = self.controller
        nominal = controller.planned_duration_s(selected.accelerator)
        fails, duration = self.plan.reconfig_outcome(now, nominal)
        success, dead = controller.attempt_switch(
            selected.accelerator, now_s=now, duration_s=duration,
            fails=fails)
        kernel.reconfig_until = max(kernel.reconfig_until, now + dead)
        self.retry_at = _INF
        if success:
            self.inflight = False
            return selected
        self.failures += 1
        self.dead_time_s += dead
        if attempt < self.spec.reconfig_retries:
            # Retry with exponential backoff; the old accelerator keeps
            # serving between attempts.
            self.inflight = True
            self.retries += 1
            backoff = self.spec.retry_backoff_s * (2 ** attempt)
            self.retry_at = now + (dead + backoff)
            self.target = selected
            self.next_attempt = attempt + 1
            return entry
        self.inflight = False
        if self.degrade is None:
            return entry
        return self.degrade(entry) or entry

    def retry(self, entry, kernel: _Kernel):
        """Fire the pending retry at ``retry_at``."""
        return self.attempt(self.target, self.next_attempt, self.retry_at,
                            entry, kernel)


def run_fast(sim):
    """One serving run, segment-batched; ``None`` = fall back to events.

    Bit-identical to ``EdgeServerSimulator`` event mode, fault campaigns
    included: same RNG streams consumed in the same order, same float
    operations for every queue / clock update, same trace values. See
    the module docstring for the fallback condition.
    """
    cfg = sim.config
    workload = sim.workload
    duration = workload.duration_s
    policy = sim.policy

    plan = sim._fault_plan()
    arrivals, total, dropped = _served_arrivals(sim, plan)
    if cfg.batching:
        kernel_cls = _BatchKernel
    elif _inference_errors(plan):
        kernel_cls = _SerialRetryKernel
    else:
        kernel_cls = _SerialKernel
    kernel = kernel_cls(sim, arrivals, plan)

    monitor = WorkloadMonitor(window_s=cfg.monitor_window_s)
    controller = ReconfigurationController(
        reconfig_time_s=cfg.reconfig_time_s,
        cost_model=cfg.partial_reconfig)

    entry = policy.select(workload.nominal_ips)
    controller.switch(entry.accelerator, now_s=0.0)
    initial_events = controller.count
    kernel.set_entry(entry)
    replay = None if plan is None else _ReconfigReplay(plan, controller,
                                                       policy)

    ticks = _tick_times(cfg, duration)
    capacity = cfg.queue_capacity
    record_trace = cfg.record_trace
    trace: dict = {"t": [], "workload_ips": [], "pruning_rate": [],
                   "confidence_threshold": [], "accuracy": [],
                   "serving_ips": []}

    # Brownout ladder (mirrors the event loop's on_arrival/on_decision
    # additions with identical float comparisons and floor arithmetic).
    brownout = cfg.brownout
    brown_levels = cfg.brownout_levels
    bottom_rung = len(brown_levels)
    select_at = getattr(policy, "select_at", None)
    base_floor = getattr(policy, "min_accuracy", None)
    ladder = brownout and select_at is not None and base_floor is not None
    # Without brownout a decision never reads the queue, so a lazy
    # kernel is only served when the tick changes what it serves with
    # (entry, reconfig_until) — and at retries and the horizon.
    lazy = kernel.lazy and not brownout
    rung = 0
    brownout_steps = 0
    brownout_time_s = 0.0
    brownout_since = 0.0

    energy_j = 0.0
    last_power_t = 0.0
    fed = 0               # arrivals already fed to the monitor
    ti = 0
    n_ticks = len(ticks)

    while True:
        tick = ticks[ti] if ti < n_ticks else _INF
        retry_at = _INF if replay is None else replay.retry_at
        is_retry = retry_at < tick
        if is_retry:
            if retry_at > duration:
                break  # past the horizon: the retry never fires
            boundary = retry_at
        elif tick < retry_at:
            boundary = tick
        elif tick == _INF:
            break
        else:
            return None  # a retry landing on a tick: order-dependent
        # A completion or reconfiguration-resume landing exactly on the
        # boundary: whether it precedes the boundary event depends on
        # event scheduling order. Let the oracle decide.
        if kernel.reconfig_until == boundary:
            return None
        if not lazy or is_retry:
            if not kernel.serve(boundary, is_tick=True) \
                    or kernel.c_last == boundary:
                return None
        if is_retry:
            entry = replay.retry(entry, kernel)
            kernel.set_entry(entry)
            continue

        ti += 1
        hi = int(np.searchsorted(arrivals, tick, side="right"))
        if hi > fed:
            monitor.observe_many(arrivals[fed:hi])
            fed = hi
        ips = monitor.sampled_ips(tick)
        dt = tick - last_power_t
        if dt > 0:
            energy_j += entry.power_at(ips) * dt
            last_power_t = tick
        if brownout:
            occ = kernel.queued() / capacity
            new_rung = rung
            if occ >= cfg.brownout_high and new_rung < bottom_rung:
                new_rung += 1
            elif occ <= cfg.brownout_low and new_rung > 0:
                new_rung -= 1
            if new_rung != rung:
                brownout_steps += 1
                if rung == 0:
                    brownout_since = tick
                elif new_rung == 0:
                    brownout_time_s += tick - brownout_since
                rung = new_rung
                kernel.shedding = rung == bottom_rung
        if ladder and rung > 0:
            selected = select_at(
                base_floor - brown_levels[rung - 1], ips, current=entry)
        else:
            selected = policy.select(ips, current=entry)
        switch = controller.needs_switch(selected.accelerator)
        if lazy:
            if switch:
                changes = replay is None or not replay.inflight
            else:
                changes = selected is not entry
            if not changes:
                kernel.skipped.append(tick)
            elif not kernel.serve(tick, is_tick=True):
                return None
        if switch:
            if replay is None:
                dead = controller.switch(selected.accelerator, now_s=tick)
                kernel.reconfig_until = tick + dead
                entry = selected
            elif not replay.inflight:
                entry = replay.attempt(selected, 0, tick, entry, kernel)
        else:
            entry = selected
        kernel.set_entry(entry)
        monitor.acknowledge(tick)
        if record_trace:
            # The *deployed* operating point: under fault injection a
            # failed reconfiguration can leave it behind the selection.
            trace["t"].append(tick)
            trace["workload_ips"].append(ips)
            trace["pruning_rate"].append(entry.accelerator.pruning_rate)
            trace["confidence_threshold"].append(
                entry.confidence_threshold)
            trace["accuracy"].append(entry.accuracy)
            trace["serving_ips"].append(entry.serving_ips)

    if not kernel.serve(duration, is_tick=False):
        return None
    if rung > 0:
        brownout_time_s += duration - brownout_since

    # Arrival events past the horizon never fire in the event loop, so
    # the monitor must not see them either.
    hi_end = int(np.searchsorted(arrivals, duration, side="right"))
    if hi_end > fed:
        monitor.observe_many(arrivals[fed:hi_end])
    final_ips = monitor.sampled_ips(duration)
    dt = duration - last_power_t
    if dt > 0:
        energy_j += entry.power_at(final_ips) * dt

    latency_sum = kernel.latency_sum()
    processed = kernel.processed

    post = controller.events[initial_events:]
    return RunMetrics(
        policy=getattr(policy, "name", type(policy).__name__),
        duration_s=duration,
        total_requests=total,
        processed=processed,
        # Still queued at the horizon: never served.
        lost=kernel.lost + kernel.queued(),
        accuracy=float(kernel.correct) / processed if processed else 0.0,
        avg_latency_s=latency_sum / processed if processed else 0.0,
        energy_j=energy_j,
        reconfigurations=sum(1 for e in post if e.success),
        reconfig_dead_time_s=sum(e.duration_s for e in post if e.success),
        dropped=dropped,
        failed=kernel.failed,
        retries=kernel.retries,
        reconfig_failures=replay.failures if replay else 0,
        reconfig_retries=replay.retries if replay else 0,
        fault_dead_time_s=replay.dead_time_s if replay else 0.0,
        batches=kernel.batches,
        shed=kernel.shed,
        brownout_steps=brownout_steps,
        brownout_time_s=brownout_time_s,
        in_flight=kernel.in_flight(),
        trace=trace if record_trace else {},
    )
