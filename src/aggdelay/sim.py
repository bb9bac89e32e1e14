"""Seeded Monte Carlo simulator of the two node models.

Standard mode: every frame arrives by one superposed Poisson process,
queues FIFO, and is served for gamma + backoff + payload/bit_rate with
fresh independent draws per frame. Aggregated mode: frames accumulate in
a size-k buffer; the k-th arrival forms a batch whose single service uses
one backoff draw and the true payload sum. A frame's sojourn runs from
its own arrival to its batch's service completion.

Unlike the analytic chain, batches here inherit the true Erlang-k
inter-formation times from the Poisson stream rather than the Poisson
lambda/k approximation, which is exactly what makes this module an
independent oracle. ``validate_against_model`` quantifies the gap.

Three named PRNG substreams (arrivals, payloads, backoffs) are derived
from the one seed, so changing one distribution never perturbs the
others' draws. Identical (config, seed) gives bit-identical results, and
independent runs share no state.

A run is streamed in fixed blocks of 2^16 frames (whole batches): a block
continues the arrival cumsum and the closed-form Lindley scan from the
previous block's carries, and folds its statistics into running (n, mean,
M2) moments merged with Chan et al.'s pairwise update. A block's arrays
fit a 2 MB L2 cache, so its reductions run in cache, and memory stays flat
whatever ``num_frames`` is. Every per-frame time is bitwise the one an
all-at-once run computes, and a queue wait is exactly 0 at the start of a
busy period. A one-block run reduces sojourn and buffer wait exactly as
``np.mean``/``np.std`` over the frame arrays do; the aggregated queue-wait
and service means are frame-weighted batch means, equal up to rounding.

A run of more than 2^19 frames, in a process allowed at least two CPUs,
draws its substreams on one plain helper thread, one block ahead into a
second pair of buffers, while the calling thread runs the cumsum, the
scan and the reductions of the block before. Each substream is still
drawn by one thread in frame order, and a draw in blocks equals one whole
draw value for value, so no output byte depends on the thread or the CPU
count. A shorter run stays on the calling thread: on two CPUs its
hand-offs cost more than the overlap gains. The helper ends with the
call, whether it returns or raises.

The block buffers live in a holder that one caller passes through its
runs: ``simulate`` takes a fresh one, and ``replications`` one per call,
which all of its seeds reuse, so a short run does not fault its arrays
in again for every seed.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .model import PayloadFamily, PKForm, TrafficSpec, evaluate
from .phy import PhyProfile, overhead_gamma


class SimMode(Enum):
    STANDARD = "standard"
    AGGREGATED = "aggregated"


_STREAM_INDEX = {"arrivals": 0, "payloads": 1, "backoffs": 2}


def _substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named randomness source."""
    key = _STREAM_INDEX[name]
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run of the standard or aggregated node model.

    Frames arrive as one Poisson stream of rate ``traffic.lambda_total``:
    any number of Poisson sources superpose into exactly that stream.
    ``k`` is only meaningful in aggregated mode (and must then be >= 2).
    """

    mode: SimMode
    phy: PhyProfile
    traffic: TrafficSpec
    seed: int
    num_frames: int
    warmup_frames: int = 0
    k: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.mode, SimMode):
            raise ValueError(f"mode must be a SimMode, got {self.mode!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not isinstance(self.num_frames, int) or not isinstance(
            self.warmup_frames, int
        ):
            raise ValueError("num_frames and warmup_frames must be integers")
        if not self.num_frames > self.warmup_frames >= 0:
            raise ValueError("need num_frames > warmup_frames >= 0")
        if self.mode is SimMode.AGGREGATED:
            if not isinstance(self.k, int) or self.k < 2:
                raise ValueError("aggregated mode needs an integer k >= 2")
        elif self.k != 1:
            raise ValueError("standard mode uses k = 1")


@dataclass(frozen=True)
class SimResult:
    """Measured sojourn statistics of one run.

    The sojourn decomposes per frame as buffer wait (aggregation stage,
    zero in standard mode) + queue wait + service time, so the breakdown
    means sum to ``sojourn_mean`` up to float accumulation. Standard
    deviations are sample (ddof=1) values; they and the derived
    ``ci95_halfwidth = 1.96*stddev/sqrt(frames_measured)`` are NaN when
    fewer than two frames were measured.

    Frame accounting: ``frames_generated = frames_measured +
    warmup_excluded + in_flight`` where in-flight frames never completed
    service by the horizon (e.g. a final partial batch).

    ``interbatch_cv`` is the coefficient of variation of the times
    between consecutive batch formations over the whole run, warmup
    included (every arrival in standard mode); NaN with fewer than three
    batches. ``to_dict`` leaves it out: ``validate_against_model``
    reports it.
    """

    frames_generated: int
    frames_measured: int
    warmup_excluded: int
    in_flight: int
    sojourn_mean: float
    sojourn_stddev: float
    ci95_halfwidth: float
    buffer_wait_mean: float
    buffer_wait_ci95: float
    queue_wait_mean: float
    service_mean: float
    interbatch_cv: float = math.nan

    def to_dict(self) -> dict:
        """The reported fields under their output names; undefined statistics stay NaN."""
        return {
            "frames_generated": self.frames_generated,
            "frames_measured": self.frames_measured,
            "warmup_excluded": self.warmup_excluded,
            "in_flight": self.in_flight,
            "sojourn_mean_s": self.sojourn_mean,
            "sojourn_stddev_s": self.sojourn_stddev,
            "ci95_halfwidth_s": self.ci95_halfwidth,
            "buffer_wait_mean_s": self.buffer_wait_mean,
            "buffer_wait_ci95_s": self.buffer_wait_ci95,
            "queue_wait_mean_s": self.queue_wait_mean,
            "service_mean_s": self.service_mean,
        }


def _sample_payloads(
    rng: np.random.Generator, traffic: TrafficSpec, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with payload sizes in continuous bits, per a random family.

    The values are those of ``rng.exponential``, ``rng.uniform`` and
    ``rng.choice``, drawn in place: the scaled standard draws and the
    indexed integer draws are bitwise what those samplers return.
    """
    fam = traffic.payload_family
    if fam is PayloadFamily.EXPONENTIAL:
        # ziggurat draws: payloads have their own substream, so a variable
        # number of raw draws per value perturbs no other distribution
        rng.standard_exponential(out=out)
        out *= traffic.payload_mean
    elif fam is PayloadFamily.UNIFORM_RANGE:
        rng.random(out=out)
        out *= traffic.uniform_hi - traffic.uniform_lo
        out += traffic.uniform_lo
    else:
        values = np.asarray(traffic.empirical_values, dtype=float)
        np.take(values, rng.integers(0, values.size, out.size), out=out)
    return out


def _sample_backoffs(rng: np.random.Generator, phy: PhyProfile, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with backoff times: slot * U{0,...,cw}, or the literal override."""
    if phy.backoff_override is not None:
        out.fill(phy.backoff_override)
        return out
    # int32 draws equal the int64 ones value for value, and cost half as much
    dtype = np.int32 if phy.cw < np.iinfo(np.int32).max else np.int64
    return np.multiply(rng.integers(0, phy.cw + 1, size=out.size, dtype=dtype), phy.slot, out=out)


class _Draws:
    """A run's three substreams, drawn a block of frames at a time.

    ``fill(gaps, service)`` draws the next ``gaps.size`` frames'
    inter-arrival times into ``gaps`` and the service times gamma + backoff
    + payload/bit_rate of their whole batches into ``service``. Calls must
    come one at a time and in frame order; then each substream is drawn in
    order, and a draw in blocks equals one whole draw value for value, so
    neither the block size nor the calling thread changes a value.
    """

    def __init__(self, config: SimConfig) -> None:
        self.k = config.k
        self.phy = config.phy
        self.traffic = config.traffic
        self.scale = 1.0 / config.traffic.lambda_total
        self.gamma = overhead_gamma(config.phy).gamma_total
        self.arrivals = _substream(config.seed, "arrivals")
        self.payloads = _substream(config.seed, "payloads")
        self.backoffs = _substream(config.seed, "backoffs")
        self.payload_time = None
        if config.traffic.payload_family is PayloadFamily.DETERMINISTIC:
            # one constant per batch: numpy's sum of a row of k payloads
            row = np.full(self.k, config.traffic.payload_mean)
            self.payload_time = float(row.sum()) / config.phy.bit_rate

    def fill(self, gaps: np.ndarray, service: np.ndarray) -> None:
        _sample_backoffs(self.backoffs, self.phy, service)
        service += self.gamma
        if self.payload_time is not None:
            service += self.payload_time
        else:  # payloads first, with ``gaps`` as their scratch
            payloads = _sample_payloads(self.payloads, self.traffic, gaps)
            if self.k > 1:
                payloads = payloads[: service.size * self.k].reshape(-1, self.k).sum(axis=1)
            payloads /= self.phy.bit_rate
            service += payloads
        self.arrivals.standard_exponential(out=gaps)
        gaps *= self.scale  # bitwise rng.exponential(scale)


class _Buffers:
    """Block-sized arrays kept for the next run that asks for the same shape.

    One holder serves one caller's runs in turn, never two runs at once.
    """

    __slots__ = ("arrays",)

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        array = self.arrays.get(name)
        if array is None or array.shape != shape:
            array = self.arrays[name] = np.empty(shape)
        return array


def _drawn(draws: _Draws, buffers: _Buffers, n: int, block: int, threaded: bool):
    """Each block's draws, in frame order, for a run of ``n`` frames.

    Yields the block's inter-arrival times and its whole batches' service
    times, in buffers the caller may overwrite until it asks for the next
    block. Unthreaded, the calling thread draws each block when asked,
    into one reused pair of buffers. Threaded, a helper thread draws one
    block ahead into a second pair, so that it can go on while the caller
    still reduces the block before: asking for block i frees the pair of
    block i - 1, which then takes the draws of block i + 1. A failure on
    the helper is raised on the caller, and the helper is joined when the
    generator ends, is closed or raises.
    """
    slots = 2 if threaded else 1
    gaps = buffers.take("gaps", (slots, min(block, n)))
    service = buffers.take("service", (slots, gaps.shape[1] // draws.k))

    def pair(i):
        size = min(block, n - i * block)
        return gaps[i % slots, :size], service[i % slots, : size // draws.k]

    count = -(-n // block)
    if not threaded:
        for i in range(count):
            draws.fill(*pair(i))
            yield pair(i)
        return
    free = threading.Semaphore(slots)  # pairs the helper may fill
    ready = threading.Semaphore(0)  # filled pairs, or a failure
    failure: list[BaseException] = []
    stop = False

    def helper():
        try:
            for i in range(count):
                free.acquire()
                if stop:
                    return
                draws.fill(*pair(i))
                ready.release()
        except BaseException as exc:  # raised again on the caller
            failure.append(exc)
            ready.release()

    thread = threading.Thread(target=helper, name="aggdelay-draws", daemon=True)
    thread.start()
    try:
        for i in range(count):
            ready.acquire()
            if failure:
                raise failure[0]
            yield pair(i)
            free.release()
    finally:
        stop = True
        free.release()  # wakes a helper that waits for a pair
        thread.join()


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _fifo_waits(
    ready: np.ndarray,
    service: np.ndarray,
    s0: float,
    m0: float,
    out: np.ndarray,
    pre: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """Queue waits of a FIFO single server fed jobs in index order.

    Closed form of the Lindley recursion W_i = max(W_{i-1} + s_{i-1} -
    (ready_i - ready_{i-1}), 0): with S the service prefix sums and
    pre_i = ready_i - S_{i-1}, the wait is peak_i - pre_i where peak_i =
    max_{j<=i} pre_j. It is exactly 0 at the start of a busy period and
    never negative. A run in pieces continues both scans from the earlier
    jobs' service sum ``s0`` (0 at the start) and running maximum ``m0``
    (-inf), which keeps every wait bitwise equal to the whole-run scan.
    Returns the waits (in ``out``; ``pre`` is scratch) and the carries for
    the next piece. ``fmax`` is the faster running maximum; ``pre`` holds
    no NaN, as every input is finite.
    """
    # S_{i-1}, then ready_i - S_{i-1}
    pre[0] = s0
    pre[1:] = service[:-1]
    np.cumsum(pre, out=pre)
    s_sum = float(pre[-1] + service[-1])
    np.subtract(ready, pre, out=pre)
    peak = np.fmax.accumulate(pre, out=out)
    np.maximum(peak, m0, out=peak)
    m_peak = float(peak[-1])
    peak -= pre
    return peak, s_sum, m_peak


class _Moments:
    """Running count, mean and M2 (sum of squared deviations) of a sample.

    Blocks merge with the pairwise update of Chan, Golub and LeVeque, and
    a single block reproduces ``np.mean`` and ``np.std(ddof=1)`` bit for
    bit. ``add(x)`` uses ``x`` as scratch space. ``add_mean(x, weight, cut)``
    leaves it alone and tracks the mean only (M2 becomes NaN), counting
    each value ``weight`` times, except the first ``weight - cut`` times.
    """

    __slots__ = ("n", "mean", "m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = math.nan
        self.m2 = math.nan

    def add(self, x: np.ndarray) -> None:
        n = x.size
        if n == 0:
            return
        mean = float(np.sum(x) / n)
        x -= mean
        x *= x
        self.merge(n, mean, float(np.sum(x)))

    def add_mean(self, x: np.ndarray, weight: int, cut: int) -> None:
        if cut:
            self.merge(weight - cut, float(x[0]), math.nan)
            x = x[1:]
        if x.size:
            self.merge(x.size * weight, float(np.sum(x) / x.size), math.nan)

    def merge(self, n: int, mean: float, m2: float) -> None:
        if self.n == 0:
            self.n, self.mean, self.m2 = n, mean, m2
            return
        total = self.n + n
        delta = mean - self.mean
        self.mean += delta * n / total
        self.m2 += m2 + delta * delta * self.n * n / total
        self.n = total

    @property
    def stddev(self) -> float:
        return math.sqrt(self.m2 / (self.n - 1)) if self.n >= 2 else math.nan

    @property
    def ci95(self) -> float:
        return 1.96 * self.stddev / math.sqrt(self.n) if self.n >= 2 else math.nan


#: Frames per block, rounded down to whole batches (at least one). A
#: block's arrays then fit a 2 MB L2 cache, so its reductions run in cache.
#: Per-frame values do not depend on it, but merging the moments of more
#: blocks rounds differently, so it is fixed: output bytes stay a function
#: of (config, seed) alone.
_BLOCK_FRAMES = 1 << 16
#: A run of more than this many frames draws on a helper thread where two
#: CPUs are usable; a shorter one loses more to the hand-offs than it gains.
#: In interleaved pairs on 2 vCPUs the helper won every set from 10 blocks
#: up, won most but not all sets at 4 to 8, and mostly lost at 2 to 3.
_THREAD_FRAMES = 1 << 19


def simulate(config: SimConfig, *, _buffers: _Buffers | None = None) -> SimResult:
    """Run one seeded FIFO single-server simulation.

    Frames are generated up to ``num_frames`` arrivals; statistics cover
    completed frames whose arrival index is at least ``warmup_frames``.
    In aggregated mode a trailing partial batch never completes and is
    reported as in-flight.

    The run is walked in blocks of whole batches. Only the last arrival
    and batch-formation times, the Lindley scan's service sum and running
    maximum, and the running moments cross a block boundary, so memory
    does not grow with ``num_frames``. Queue-wait and service means are
    taken over batches, each weighted by its measured frames. A run of
    more than ``_THREAD_FRAMES`` frames draws one block ahead on a helper
    thread when two CPUs are usable (module docstring). ``_buffers`` is the
    private holder of the block buffers: a fresh one when not given.
    """
    aggregated = config.mode is SimMode.AGGREGATED
    k = config.k
    n = config.num_frames
    warmup = config.warmup_frames
    block = k * max(1, _BLOCK_FRAMES // k)
    threaded = n > _THREAD_FRAMES and _usable_cpus() > 1
    draws = _Draws(config)
    buffers = _Buffers() if _buffers is None else _buffers

    # Reused by every block: batch queue waits, and scratch for the Lindley
    # scan, then the gaps between batches, then (aggregated mode) the
    # frames' buffer waits and sojourns. Arrival times are summed in place
    # over the drawn gaps: summing into one more block-sized buffer measured
    # slower on one thread.
    scratch = buffers.take("scratch", (min(block, n),))
    waits = buffers.take("waits", (scratch.size // k,))

    sojourn, buffer_wait, queue_wait, service = (_Moments() for _ in range(4))
    gaps = _Moments()  # between consecutive batch formations (all batches)
    # Carried between blocks: the last arrival and batch-formation times,
    # and the service prefix sum and running maximum of the Lindley scan.
    last_arrival = 0.0
    last_mark = math.nan
    s_sum, s_peak = 0.0, -math.inf
    completed = 0
    blocks = _drawn(draws, buffers, n, block, threaded)
    try:
        for i, (inter, batch_service) in enumerate(blocks):
            first = i * block
            inter[0] += last_arrival  # bitwise the whole-run cumsum
            arrivals = np.cumsum(inter, out=inter)
            last_arrival = float(arrivals[-1])
            n_batches = batch_service.size
            if n_batches == 0:
                continue  # only a trailing partial batch: all in flight
            done = n_batches * k
            completed += done
            ready = arrivals[k - 1 :: k]  # k-th arrival forms the batch
            batch_wait, s_sum, s_peak = _fifo_waits(
                ready, batch_service, s_sum, s_peak,
                out=waits[:n_batches], pre=scratch[:n_batches],
            )
            scratch[0] = ready[0] - last_mark  # NaN before the first batch
            np.subtract(ready[1:], ready[:-1], out=scratch[1:n_batches])
            last_mark = float(ready[-1])
            gaps.add(scratch[1 if first == 0 else 0 : n_batches])
            lo = min(max(warmup - first, 0), done)
            if lo == done:
                continue  # the whole block is warmup
            b0, cut = divmod(lo, k)  # a warmup cut inside batch b0 leaves k - cut frames
            batch_wait = batch_wait[b0:]
            batch_service = batch_service[b0:]
            queue_wait.add_mean(batch_wait, k, cut)
            service.add_mean(batch_service, k, cut)
            if aggregated:
                ready = ready[b0:]
                frames = arrivals[b0 * k : done].reshape(-1, k)
                times = scratch[b0 * k : done]  # buffer waits, then sojourns
                np.subtract(ready[:, None], frames, out=times.reshape(frames.shape))
                buffer_wait.add(times[cut:])
                batch_wait += ready  # waits become completion times in place
                batch_wait += batch_service
                np.subtract(batch_wait[:, None], frames, out=times.reshape(frames.shape))
                sojourn.add(times[cut:])
            else:
                batch_wait += batch_service  # waits become sojourns in place
                sojourn.add(batch_wait)
    finally:
        blocks.close()  # joins the helper now, also when a block raises

    warmup_excluded = min(warmup, completed)
    if not aggregated:
        buffer_wait.merge(completed - warmup_excluded, 0.0, 0.0)
    return SimResult(
        frames_generated=n,
        frames_measured=completed - warmup_excluded,
        warmup_excluded=warmup_excluded,
        in_flight=n - completed,
        sojourn_mean=sojourn.mean,
        sojourn_stddev=sojourn.stddev,
        ci95_halfwidth=sojourn.ci95,
        buffer_wait_mean=buffer_wait.mean,
        buffer_wait_ci95=buffer_wait.ci95,
        queue_wait_mean=queue_wait.mean,
        service_mean=service.mean,
        interbatch_cv=gaps.stddev / gaps.mean if gaps.n >= 2 else math.nan,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Side-by-side of one simulation run and the analytic chain.

    ``interbatch_cv`` is the measured coefficient of variation of the
    inter-batch formation times: the true value is 1/sqrt(k) (Erlang-k)
    while the analytic queue-wait term assumes 1 (Poisson), so the
    distance from 1 is the size of that approximation. When the analytic
    queue is unstable no comparison is attempted: ``sim`` is None and the
    deviation fields are NaN.
    """

    mode: SimMode
    k: int
    lam: float
    form: PKForm
    analytic_stable: bool
    analytic_system_time: float
    sim: SimResult | None
    abs_deviation: float
    rel_deviation: float
    within_ci95: bool | None
    interbatch_cv: float

    def to_dict(self) -> dict:
        """The reported fields under their output names, ``sim`` nested; NaN and
        infinities stay floats, and None marks a missing ``sim`` or ``within_ci95``."""
        return {
            "mode": self.mode.value,
            "k": self.k,
            "lambda_pps": self.lam,
            "form": self.form.value,
            "analytic_stable": self.analytic_stable,
            "analytic_system_time_s": self.analytic_system_time,
            "sim": None if self.sim is None else self.sim.to_dict(),
            "abs_deviation_s": self.abs_deviation,
            "rel_deviation": self.rel_deviation,
            "within_ci95": self.within_ci95,
            "interbatch_cv": self.interbatch_cv,
        }


def validate_against_model(
    config: SimConfig, form: PKForm = PKForm.DETERMINISTIC_SERVICE
) -> ValidationReport:
    """Run the simulator and compare its sojourn mean to the analytic F(k)."""
    metrics = evaluate(config.k, config.traffic.lambda_total, config.phy, config.traffic, form)
    result, abs_dev, rel_dev, within = None, math.nan, math.nan, None
    if metrics.stable:
        result = simulate(config)
        abs_dev = abs(result.sojourn_mean - metrics.system_time)
        rel_dev = abs_dev / metrics.system_time
        if not math.isnan(result.ci95_halfwidth):
            within = bool(abs_dev <= result.ci95_halfwidth)
    return ValidationReport(
        mode=config.mode,
        k=metrics.k,
        lam=metrics.lam,
        form=form,
        analytic_stable=metrics.stable,
        analytic_system_time=metrics.system_time,
        sim=result,
        abs_deviation=abs_dev,
        rel_deviation=rel_dev,
        within_ci95=within,
        interbatch_cv=math.nan if result is None else result.interbatch_cv,
    )


def replications(config: SimConfig, seeds) -> list[tuple[int, SimResult]]:
    """Run the same configuration under each seed, all checked first; one result per seed.

    The seeds' runs share one holder of block buffers.
    """
    configs = [replace(config, seed=int(s)) for s in seeds]
    buffers = _Buffers()
    return [(c.seed, simulate(c, _buffers=buffers)) for c in configs]
