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
are decided identically with no per-frame Python work. It is the only
serving kernel: transient inference errors fold into its chains (a
retry is one more service term), and micro-batched runs are declined —
a batch's size depends on the previous completion, which has no exact
closed-form scan.

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
* transient inference errors come from one block of the inference
  stream, consumed in completion order by the attempts completing
  inside the plan's active window; a failed frame returns to the queue
  head at its completion, and the main stream's positions are a cumsum
  over attempt outcomes because a failed completion draws no
  correctness uniform.

The event loop remains the semantics oracle (the same relationship as
:mod:`repro.ir.executors` vs :mod:`repro.ir.engine`): ``run_fast``
returns ``None`` whenever it cannot *prove* equivalence and the caller
falls back to event mode. That is an exact event-time tie on a
boundary: a completion (failed attempts included), service start, or
reconfiguration-resume landing on a decision tick (served or not) or
retry timestamp, or a retry landing on a tick, where the outcome
depends on event-loop scheduling order — or a micro-batched run.

``SIM_MODES`` enumerates the ``ServerConfig.sim_mode`` values:
``"auto"`` uses this fast path when sound, ``"event"`` forces the
oracle.
"""

from __future__ import annotations

import numpy as np

from ..runtime.monitor import WorkloadMonitor
from ..runtime.reconfig import ReconfigurationController
from .metrics import RunMetrics

__all__ = ["SIM_MODES", "run_fast"]

#: Accepted ``ServerConfig.sim_mode`` values.
SIM_MODES = ("auto", "event")

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

#: Attempt outcomes: success, failure sent back to the queue head, and
#: failure with the retry budget spent.
_OK, _RETRY, _FAIL = 0, 1, 2


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


def _attempt_kinds(hits: np.ndarray, budget: int) -> np.ndarray:
    """Outcome of every attempt completing inside the error window.

    ``hits[i]`` is the window's ``i``-th inference decision. A frame's
    attempts take consecutive decisions: a miss succeeds (``_OK``), a hit
    sends the frame back while it has retries left (``_RETRY``) and fails
    it for good otherwise (``_FAIL``). The first attempt in the window
    opens a frame (before the window every attempt succeeds), so frame
    boundaries follow from the decisions alone: a hit is attempt
    ``r mod (budget + 1)`` of its frame, ``r`` the hits since the last
    miss.
    """
    idx = np.arange(len(hits))
    last_miss = np.maximum.accumulate(np.where(hits, -1, idx))
    attempt = (idx - last_miss - 1) % (budget + 1)
    return np.where(hits, np.where(attempt < budget, _RETRY, _FAIL),
                    _OK).astype(np.int8)


class _SerialKernel:
    """Queue and server state of one run, advanced segment by segment.

    A segment ends at a boundary — a decision tick, a reconfiguration
    retry, or the horizon — where :func:`run_fast` may change ``entry``,
    ``reconfig_until`` and ``shedding``. :meth:`serve` admits arrivals
    and starts service attempts up to the boundary and returns ``False``
    on an exact event-time tie with it. Served across several decision
    ticks at once, the kernel checks the ticks queued in ``skipped`` for
    ties.

    Every attempt draws one uniform of the main stream at its start (the
    exit choice) and, if it completes successfully by the horizon, one at
    its completion (the correctness sample); the single server makes the
    draws strictly sequential. So attempt ``k`` of the run reads
    position ``P_k = P_{k-1} + 1 + ok_{k-1}``, whichever arrivals end up
    admitted — which is what lets :meth:`serve` run the admission
    recursion as array work. Without inference errors every attempt
    succeeds and frame ``f`` reads uniform pair ``f``. With them, a
    failed frame returns to the queue head at its completion and, the
    server being free, restarts at once: a retry is one more service term
    in its frame's chain. Which attempts fail follows from the inference
    stream (:func:`_attempt_kinds`) as long as the completions stay on
    one side of each edge of the plan's active window; completions are
    monotone, so a chunk whose completions cross an edge is planned
    again with the crossing attempt on its actual side. A failed
    attempt still in service at the boundary leaves its
    frame pending (``pend``): it rejoins the queue head at its
    completion and restarts with the entry current then.

    Write ``a'`` for ``max(arrival, reconfig_until)``, ``s``/``c`` for an
    attempt's start/completion. A frame's first attempt starts at
    ``s = max(a', c_prev)``, ``c_prev`` the completion before it, opening
    a *busy period* when ``a' > c_prev`` (an *idle* start when its
    arrival is the maximum) and continuing one otherwise; a retry always
    continues. An arrival sees ``N - K`` queued frames, ``N`` frames
    admitted before it and ``K`` of them started strictly before it
    (idle starts included, as they start inside their own arrival event),
    and is refused at ``N - K >= L`` — ``L`` the shedding length on the
    bottom brownout rung, else the capacity. Frames queued at the start
    of a segment enter the scan first, as arrivals at ``-inf`` that are
    always admitted. :meth:`serve` scans a segment's arrivals in chunks
    of at most ``_CHUNK``:

    * optimistically assuming the chunk admits every arrival, the
      max-plus closed form ``c_k ~ S_k + max(c_prev, max_{j<=k}(a'_j -
      S_{j-1}))`` (``S`` the cumsum of service times, ``a' = -inf`` for
      retries) locates every busy-period start at once; each period's
      chain is then recomputed exactly as a sequential prefix sum seeded
      with its start (:func:`_chain`: the event loop's ``max``/``+``
      chain, addition by addition) and every start/continuation is
      checked against the exact chain — the chunk is cut at the first
      check that fails;
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

    def __init__(self, sim, arrivals: np.ndarray, plan):
        cfg = sim.config
        self.arrivals = arrivals
        self.duration = sim.workload.duration_s
        self.capacity = cfg.queue_capacity
        self.shed_len = cfg.shed_queue_len
        self.shedding = False   # bottom brownout rung: admission sheds
        self.entry = None
        self.c_last = _NEG_INF  # completion of the last attempt started
        self.reconfig_until = 0.0
        self.ai = 0             # next arrival index to admit
        self.qlen = 0           # admitted frames waiting (not in service)
        self.started = 0        # first attempts (and restarts) started
        self.pend = False       # the attempt in service fails and retries
        self.p = 0              # main-stream position of the next attempt
        self.ei = 0             # inference decisions consumed
        self.processed = 0
        self.lost = 0
        self.shed = 0
        self.failed = 0
        self.retries = 0
        self.correct = 0        # integer-exact accuracy_sum
        self.lat_sum = 0.0
        # Decision ticks passed since the last serve call: a completion
        # landing exactly on one is an event-order tie.
        self.skipped: list = []
        self.budget = 0
        self.err_from = self.err_until = _INF  # empty error window
        self.outcomes = None
        if plan is not None and plan.spec.inference_error_prob > 0.0:
            spec = plan.spec
            self.budget = spec.inference_retries
            self.err_from = spec.active_from_s
            if spec.active_until_s is not None:
                self.err_until = spec.active_until_s
            # Every frame is served at most budget + 1 times, so this
            # block covers every inference decision of the run.
            self.outcomes = _attempt_kinds(
                plan.inference_errors(len(arrivals) * (self.budget + 1)),
                self.budget)
        self.draws = np.random.default_rng(sim.seed + 777).random(
            2 * len(arrivals) * (self.budget + 1) + 2)

    def _refuse(self, n: int) -> None:
        if self.shedding:
            self.shed += n
        else:
            self.lost += n

    def _requeue(self, t_end: float, limit: int) -> None:
        """The attempt in service fails: its frame rejoins the queue head
        at the attempt's completion ``c_last``. Nothing starts before
        then, so arrivals up to it meet a queue that only grows."""
        c_last = self.c_last
        k = int(np.searchsorted(self.arrivals, min(c_last, t_end),
                                side="right"))
        n = k - self.ai
        admit = min(n, max(limit - self.qlen, 0))
        self._refuse(n - admit)
        self.qlen += admit
        self.ai = k
        if c_last <= t_end:
            self.pend = False
            self.qlen += 1

    def serve(self, t_end: float, is_tick: bool) -> bool:
        c_last = self.c_last
        # A completion exactly on a tick — skipped or this boundary — is
        # an event-order tie; any start on the boundary other than an
        # idle one then comes from that completion (or from a resume
        # the caller declines), so starts up to t_end inclusive are safe.
        ties = self.skipped + [t_end] if is_tick else self.skipped
        self.skipped = []
        if c_last in ties:
            return False
        limit = self.shed_len if self.shedding else self.capacity
        if self.pend:
            self._requeue(t_end, limit)
        arrivals = self.arrivals
        j = self.ai
        hi = int(np.searchsorted(arrivals, t_end, side="right"))
        carried = self.qlen  # queued frames still to scan (at -inf)
        if self.pend or not carried and j == hi:
            return True
        ticks = np.asarray(ties) if ties else None
        duration = self.duration
        reconfig_until = self.reconfig_until
        entry = self.entry
        accuracy = entry.accuracy
        draws = self.draws
        outcomes = self.outcomes
        err_from = self.err_from
        err_until = self.err_until
        span = self.budget + 1
        cdf = _exit_cdf(entry.exit_rates)
        if entry.exit_latencies_s:
            lat = np.asarray(entry.exit_latencies_s, dtype=np.float64)
        else:
            lat = None
            const = entry.latency_s

        started = 0
        processed = self.processed
        correct = self.correct
        lat_sum = self.lat_sum
        failed = retries = 0
        pend = False
        p_done = pos = self.p    # stream position: committed / admitted
        ei_done = ei = self.ei   # inference decisions: likewise
        refused = 0
        frames = 0        # segment frames admitted (carried queue first)
        c_prev = c_last   # completion of the last admitted attempt
        k0 = 0            # frames counted as started by every later arrival
        tail_s = np.empty(0)              # starts of frames k0..frames-1
        tail_idle = np.zeros(0, dtype=bool)

        refusing = False
        while carried or j < hi:
            chunk = arrivals[j:min(hi, j + _CHUNK)]
            if carried:
                chunk = np.concatenate((np.full(carried, _NEG_INF), chunk))
            # Attempts k_in..k_out-1 assumed to complete inside the error
            # window, guessed from the first one's earliest start and
            # planned again until the chain agrees.
            n_att = len(chunk) * span
            k_out = n_att
            k_in = 0 if err_from <= max(c_prev, chunk[0]) < err_until \
                else n_att
            while True:
                t = chunk
                w = len(t)
                if k_in >= k_out:
                    # Every attempt succeeds: one per frame, uniform pairs.
                    kinds = F = P = None
                    u = draws[pos:pos + 2 * w:2]
                else:
                    kinds = np.zeros(n_att, dtype=np.int8)
                    seg = outcomes[ei:ei + min(k_out, n_att) - k_in]
                    kinds[k_in:k_in + len(seg)] = seg
                    # F[i]: frame i's first attempt; F[w]: attempt count.
                    F = np.concatenate(
                        ([0], np.flatnonzero(kinds != _RETRY)[:w] + 1))
                    kinds = kinds[:F[-1]]
                    P = pos + np.concatenate(
                        ([0], np.cumsum(2 - (kinds != _OK))))
                    u = draws[P[:-1]]
                x = np.full(len(u), const) if lat is None \
                    else lat[cdf.searchsorted(u, side="right")]
                m = len(x)
                if refusing:
                    # Inside a busy period holding a refusal: the chain of
                    # the next w frames is fixed whichever arrivals join.
                    c = x.copy()
                    c[0] += c_prev
                    np.cumsum(c, out=c)
                    c_ext = np.concatenate(([c_prev], c))
                    s_att = c_ext[:-1]
                else:
                    # Optimistic: every arrival of the chunk admitted.
                    a = np.maximum(t, reconfig_until)
                    if F is None:
                        aa = a
                    else:
                        aa = np.full(m, _NEG_INF)
                        aa[F[:-1]] = a
                    cums = np.cumsum(x)
                    d = aa.copy()
                    d[1:] -= cums[:-1]
                    run_max = np.maximum.accumulate(d)
                    prev = np.empty(m)
                    prev[0] = c_prev
                    np.maximum(run_max[:-1], c_prev, out=prev[1:])
                    head = d > prev  # approximate busy-period starts
                    c = x.copy()
                    c[head] += aa[head]
                    if not head[0]:
                        c[0] += c_prev
                    bounds = np.flatnonzero(head)
                    if not head[0]:
                        bounds = np.concatenate(([0], bounds))
                    _chain(c, bounds, np.diff(np.append(bounds, m)))
                    prev[1:] = c[:-1]  # exact now: check every classification
                    bad = (aa > prev) != head
                    if bad.any():
                        m = int(np.argmax(bad))  # a first attempt, >= 1
                        w = m if F is None else int(np.searchsorted(F, m))
                        t, a, c, prev, head = (
                            t[:w], a[:w], c[:m], prev[:m], head[:m])
                        if F is not None:
                            F, kinds, P = F[:w + 1], kinds[:m], P[:m + 1]
                if outcomes is not None:
                    inside = (c >= err_from) & (c < err_until)
                    assumed = np.zeros(m, dtype=bool)
                    assumed[k_in:k_out] = True
                    off = np.flatnonzero(inside != assumed)
                    if len(off):
                        # Fixing the first wrong guess leaves the chain
                        # up to it intact, so this converges.
                        k = int(off[0])
                        if inside[k]:
                            k_in, k_out = k, n_att
                        else:
                            k_out = k
                        continue
                break

            if refusing:
                if F is None:
                    s, c_end = s_att, c_ext
                else:
                    s, c_end = c_ext[F[:-1]], c_ext[F]
                s_all = np.concatenate((tail_s, s))
                idle_all = np.concatenate((tail_idle, np.zeros(w, dtype=bool)))
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
                ends = c_end[n[:w] - frames] < t
                used = int(np.argmax(ends)) if ends.any() else w
                admitted = int(n[used]) - frames
                refused += used - admitted
                # Past the period's end the server has idled: every
                # admitted frame started, and the optimistic scan resumes.
                refusing = used == w
                k_last = int(kk[-1]) if refusing else frames + admitted
            else:
                s_att = np.where(head, aa[:m], prev)
                if F is None:
                    s, first = s_att, head
                else:
                    s, first = s_att[F[:-1]], head[F[:-1]]
                s_all = np.concatenate((tail_s, s))
                idle_all = np.concatenate(
                    (tail_idle, first & (t >= reconfig_until)))
                kk = k0 + _started_before(s_all, idle_all, t)
                over = (frames + np.arange(w)) - kk >= limit
                over[:carried] = False
                used = admitted = int(np.argmax(over)) if over.any() else w
                refusing = used < w
                k_last = int(kk[used - 1]) if used else k0

            # Commit the admitted frames' attempts that start by the
            # boundary; starts are sorted across chunks, so once one
            # attempt waits, every later chunk commits nothing.
            m = admitted if F is None else int(F[admitted])
            k = int(np.searchsorted(s_att[:m], t_end, side="right"))
            if k:
                cs = c[:k]
                c_last = float(cs[-1])
                started += k if F is None else int(np.searchsorted(F, k))
                # Completion events at or before the horizon always fire;
                # a later one leaves its frame in flight (exit draw
                # consumed).
                done = int(np.searchsorted(cs, duration, side="right"))
                if done:
                    if kinds is None:
                        served = x[:done]
                        good = draws[pos + 1:pos + 2 * done:2]
                    else:
                        outcome = kinds[:done]
                        ok = outcome == _OK
                        served = x[:done][ok]
                        good = draws[P[:done][ok] + 1]
                        again = int(np.count_nonzero(outcome == _RETRY))
                        retries += again
                        failed += done - len(served) - again
                    processed += len(served)
                    lat_sum = float(np.cumsum(
                        np.concatenate(([lat_sum], served)))[-1])
                    correct += int(np.count_nonzero(good < accuracy))
                pend = kinds is not None and kinds[k - 1] == _RETRY
                p_done = pos + 2 * k if P is None else int(P[k])
                ei_done = ei + max(0, min(k, k_out) - k_in)
                if ticks is not None:
                    at = np.searchsorted(cs, ticks)
                    inside = at < k
                    if np.any(cs[at[inside]] == ticks[inside]):
                        return False
            if m:
                c_prev = float(c[m - 1])
            pos = pos + 2 * m if P is None else int(P[m])
            ei += max(0, min(m, k_out) - k_in)
            # Frames k_last.. may still start after the next arrival.
            keep = slice(k_last - k0, frames + admitted - k0)
            tail_s = s_all[keep]
            tail_idle = idle_all[keep]
            k0 = k_last
            frames += admitted
            scanned = min(used, carried)
            carried -= scanned
            j += used - scanned

        self.qlen = frames - started
        self.ai = j
        self.c_last = c_last
        self.started += started
        self.pend = pend
        self.p = p_done
        self.ei = ei_done
        self.processed = processed
        self.correct = correct
        self.lat_sum = lat_sum
        self.failed += failed
        self.retries += retries
        self._refuse(refused)
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
                kernel: _SerialKernel):
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

    def retry(self, entry, kernel: _SerialKernel):
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

    if cfg.batching:
        return None  # a batch's size has no exact closed-form scan

    plan = sim._fault_plan()
    arrivals, total, dropped = _served_arrivals(sim, plan)
    kernel = _SerialKernel(sim, arrivals, plan)

    monitor = WorkloadMonitor(window_s=cfg.monitor_window_s)
    controller = ReconfigurationController(
        reconfig_time_s=cfg.reconfig_time_s,
        cost_model=cfg.partial_reconfig)

    entry = policy.select(workload.nominal_ips)
    controller.switch(entry.accelerator, now_s=0.0)
    initial_events = controller.count
    kernel.entry = entry
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
    # Without brownout a decision never reads the queue, so the kernel
    # is only served when the tick changes what it serves with (entry,
    # reconfig_until) — and at retries and the horizon.
    lazy = not brownout
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
            kernel.entry = entry
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
            occ = kernel.qlen / capacity
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
        kernel.entry = entry
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

    processed = kernel.processed

    post = controller.events[initial_events:]
    return RunMetrics(
        policy=getattr(policy, "name", type(policy).__name__),
        duration_s=duration,
        total_requests=total,
        processed=processed,
        # Still queued at the horizon: never served.
        lost=kernel.lost + kernel.qlen,
        accuracy=float(kernel.correct) / processed if processed else 0.0,
        avg_latency_s=kernel.lat_sum / processed if processed else 0.0,
        energy_j=energy_j,
        reconfigurations=sum(1 for e in post if e.success),
        reconfig_dead_time_s=sum(e.duration_s for e in post if e.success),
        dropped=dropped,
        failed=kernel.failed,
        retries=kernel.retries,
        reconfig_failures=replay.failures if replay else 0,
        reconfig_retries=replay.retries if replay else 0,
        fault_dead_time_s=replay.dead_time_s if replay else 0.0,
        shed=kernel.shed,
        brownout_steps=brownout_steps,
        brownout_time_s=brownout_time_s,
        in_flight=1 if kernel.c_last > duration else 0,
        trace=trace if record_trace else {},
    )
