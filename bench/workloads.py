"""The benchmark's workloads: CLI calls with the parameters to check them by.

Each call carries both its ``aggdelay`` argv and the same parameters in
the reference's terms, built from one description so the two cannot
drift apart. Inputs derive from the workload seed alone:
``random.Random("<workload>:<seed>")`` picks rates and batch sizes, and
the simulator seed of the i-th simulation call is ``sim_seed(workload,
seed, i)``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

import reference as ref

WORKLOADS = ("paper", "dense", "oracle")

# Paper presets, as published: fig3 is the 802.11b 11 Mbit/s gain sweep
# over k = 2..10 and 200 linear rates 1..1600 pps; fig4-*/fig5-* are the
# break-even runs for k = 2..20; all with deterministic 800-bit payloads
# and the deterministic-service form.
FIG3_GRID = ("linear", 1.0, 1600.0, 200)
FIG_PRESETS = [("fig4-" + m, "b", r) for m, r in (("1", 1e6), ("2", 2e6), ("5.5", 5.5e6), ("11", 11e6))] + [
    ("fig5-" + m, "g", r)
    for m, r in (
        ("6", 6e6), ("9", 9e6), ("12", 12e6), ("18", 18e6),
        ("24", 24e6), ("36", 36e6), ("48", 48e6), ("54", 54e6),
    )
]
PRESET_PAYLOAD = ref.Payload.deterministic(800.0)
EMPIRICAL_BITS = (400.0, 800.0, 1500.0, 12000.0)
# Break-even rates for batch sizes from 2 to 150.
THRESHOLD_KS = (*range(2, 21, 3), *range(30, 151, 20))


@dataclass(frozen=True)
class Traffic:
    """Payload family as CLI flags and as reference moments."""

    flags: tuple[str, ...]
    payload: ref.Payload


DET800 = Traffic(("--payload-family", "deterministic", "--payload-mean-bits", "800"), PRESET_PAYLOAD)
EXP800 = Traffic(("--payload-family", "exponential", "--payload-mean-bits", "800"), ref.Payload.exponential(800.0))
UNI = Traffic(("--payload-uniform", "400:1200"), ref.Payload.uniform(400.0, 1200.0))
EMP = Traffic(
    ("--payload-empirical", ",".join(f"{v:g}" for v in EMPIRICAL_BITS)),
    ref.Payload.empirical(EMPIRICAL_BITS),
)
DET12000 = Traffic(
    ("--payload-family", "deterministic", "--payload-mean-bits", "12000"),
    ref.Payload.deterministic(12000.0),
)


@dataclass(frozen=True)
class Sim:
    mode: str
    k: int
    lam: float
    seed: int
    frames: int
    warmup: int
    replications: int = 1
    sources: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Call:
    """One ``aggdelay`` invocation and what its output must satisfy."""

    command: str
    argv: tuple[str, ...]
    fmt: str
    link: ref.Link
    payload: ref.Payload
    form: str
    k: tuple[int, ...] = ()
    lam: tuple[float, ...] = field(default=(), repr=False)
    k_max: int = 0
    sim: Sim | None = None

    @property
    def points(self) -> int:
        """Analytic (k, lambda) points: grid rows, or k_max for optimal-k."""
        if self.command in ("sweep", "gain"):
            return len(self.k) * len(self.lam)
        return self.k_max if self.command == "optimal-k" else 0

    @property
    def solves(self) -> int:
        return len(self.k) if self.command == "threshold" else 0

    @property
    def frames(self) -> int:
        return self.sim.frames * self.sim.replications if self.sim else 0


def sim_seed(workload: str, seed: int, index: int) -> int:
    """Simulator seed of the index-th simulation call: 63 bits of SHA-256."""
    digest = hashlib.sha256(f"{workload}:{seed}:sim{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _num(x: float) -> str:
    """Shortest text that parses back to exactly x."""
    return repr(float(x))


def _phy(standard: str, rate: float) -> tuple[str, ...]:
    return ("--standard", standard, "--rate", _num(rate))


def _fmt(fmt: str) -> tuple[str, ...]:
    return ("--format", fmt)


def fig3_sweep(fmt: str) -> Call:
    return Call(
        "sweep", ("sweep", "--preset", "fig3", *_fmt(fmt)), fmt,
        ref.link("b", 11e6), PRESET_PAYLOAD, ref.DET,
        k=tuple(range(2, 11)), lam=tuple(ref.grid(*FIG3_GRID)),
    )


def preset_threshold(name: str, standard: str, rate: float) -> Call:
    return Call(
        "threshold", ("threshold", "--preset", name), "csv",
        ref.link(standard, rate), PRESET_PAYLOAD, ref.DET, k=tuple(range(2, 21)),
    )


def fig3_gain(k: int, lam: float) -> Call:
    return Call(
        "gain", ("gain", "--preset", "fig3", "--k", str(k), "--lambda", _num(lam)), "csv",
        ref.link("b", 11e6), PRESET_PAYLOAD, ref.DET, k=(k,), lam=(lam,),
    )


def fig3_optimal_k(lam: float, k_max: int) -> Call:
    return Call(
        "optimal-k",
        ("optimal-k", "--preset", "fig3", "--lambda", _num(lam), "--k-max", str(k_max), "--format", "json"),
        "json", ref.link("b", 11e6), PRESET_PAYLOAD, ref.DET, lam=(lam,), k_max=k_max,
    )


def sweep(standard, rate, traffic: Traffic, form, ks, grid_spec, fmt) -> Call:
    kind, lo, hi, points = grid_spec
    argv = (
        "sweep", *_phy(standard, rate), *traffic.flags, "--form", form,
        "--k", ",".join(str(k) for k in ks),
        "--lambda", f"{_num(lo)}:{_num(hi)}:{points}", "--grid-kind", kind, *_fmt(fmt),
    )
    return Call(
        "sweep", argv, fmt, ref.link(standard, rate), traffic.payload, form,
        k=tuple(ks), lam=tuple(ref.grid(kind, lo, hi, points)),
    )


def threshold(standard, rate, traffic: Traffic, form, ks) -> Call:
    argv = ("threshold", *_phy(standard, rate), *traffic.flags, "--form", form, "--k", ",".join(map(str, ks)))
    return Call(
        "threshold", argv, "csv", ref.link(standard, rate), traffic.payload, form, k=tuple(ks),
    )


def optimal_k(standard, rate, traffic: Traffic, form, lam, k_max) -> Call:
    argv = (
        "optimal-k", *_phy(standard, rate), *traffic.flags, "--form", form,
        "--lambda", _num(lam), "--k-max", str(k_max),
    )
    return Call(
        "optimal-k", argv, "csv", ref.link(standard, rate), traffic.payload, form,
        lam=(lam,), k_max=k_max,
    )


def gain(standard, rate, traffic: Traffic, form, k, lam) -> Call:
    argv = ("gain", *_phy(standard, rate), *traffic.flags, "--form", form, "--k", str(k), "--lambda", _num(lam), "--format", "json")
    return Call(
        "gain", argv, "json", ref.link(standard, rate), traffic.payload, form, k=(k,), lam=(lam,),
    )


def simulation(command, standard, rate, traffic: Traffic, sim: Sim, fmt, form=ref.DET) -> Call:
    argv = [command, *_phy(standard, rate), *traffic.flags, "--mode", sim.mode]
    if sim.mode == "aggregated":
        argv += ["--k", str(sim.k)]
    if sim.sources:
        argv += ["--sources", ",".join(_num(s) for s in sim.sources)]
    else:
        argv += ["--lambda", _num(sim.lam)]
    argv += ["--seed", str(sim.seed), "--frames", str(sim.frames), "--warmup", str(sim.warmup)]
    if sim.replications > 1:
        argv += ["--replications", str(sim.replications)]
    if command == "validate":
        argv += ["--form", form]
    argv += list(_fmt(fmt))
    return Call(command, tuple(argv), fmt, ref.link(standard, rate), traffic.payload, form, sim=sim)


def _jitter(rng: random.Random, x: float, share: float) -> float:
    return x * (1.0 + share * (2.0 * rng.random() - 1.0))


def paper(seed: int) -> list[Call]:
    """The paper's runs at their own sizes: many small calls."""
    rng = random.Random(f"paper:{seed}")
    seeds = (sim_seed("paper", seed, i) for i in itertools.count())
    fig3_rates = ref.grid(*FIG3_GRID)
    calls = [fig3_sweep("csv"), fig3_sweep("json")]
    calls += [preset_threshold(*p) for p in FIG_PRESETS]
    calls += [fig3_gain(rng.randint(2, 10), lam) for lam in rng.sample(fig3_rates, 4)]
    calls += [fig3_optimal_k(lam, 20) for lam in rng.sample(fig3_rates, 4)]
    calls += [
        simulation(
            "simulate", "b", 11e6, DET800,
            Sim("standard", 1, _jitter(rng, 800.0, 0.05), next(seeds), 50_000, 1_000, replications=4),
            "csv",
        ),
        simulation(
            "simulate", "b", 11e6, DET800,
            Sim("aggregated", 5, _jitter(rng, 1000.0, 0.05), next(seeds), 50_000, 1_000, replications=4),
            "json",
        ),
        simulation(
            "validate", "b", 11e6, DET800,
            Sim("aggregated", 5, _jitter(rng, 1000.0, 0.05), next(seeds), 1_000_000, 10_000),
            "json",
        ),
    ]
    return calls


def dense(seed: int) -> list[Call]:
    """Large analytic inputs: model, solver and phy carry the load."""
    rng = random.Random(f"dense:{seed}")
    seeds = (sim_seed("dense", seed, i) for i in itertools.count())
    calls = [
        sweep("b", 11e6, DET800, ref.DET, range(2, 101, 7),
              ("linear", 1.0, _jitter(rng, 3000.0, 0.05), 300), "csv"),
        sweep("g", 54e6, EXP800, ref.GENERAL, range(2, 101, 7),
              ("geometric", 10.0, _jitter(rng, 20000.0, 0.05), 300), "json"),
        sweep("b", 5.5e6, UNI, ref.GENERAL, range(2, 101, 14),
              ("linear", 1.0, _jitter(rng, 4000.0, 0.05), 300), "csv"),
    ]
    for i, (_, standard, rate) in enumerate(FIG_PRESETS):
        traffic, form = (DET800, ref.DET) if i % 2 == 0 else (EXP800, ref.GENERAL)
        calls.append(threshold(standard, rate, traffic, form, THRESHOLD_KS))
    calls += [optimal_k("b", 11e6, DET800, ref.DET, _jitter(rng, 160.0 * (i + 1), 0.02), 100) for i in range(10)]
    calls += [gain("g", 54e6, EXP800, ref.GENERAL, rng.randint(2, 100), _jitter(rng, 3000.0, 0.5)) for _ in range(2)]
    calls += [
        simulation(
            "simulate", "b", 11e6, DET800,
            Sim("aggregated", 5, _jitter(rng, 1000.0, 0.05), next(seeds), 20_000, 1_000, replications=2),
            "csv",
        ),
        simulation(
            "validate", "b", 11e6, EXP800,
            Sim("standard", 1, _jitter(rng, 800.0, 0.05), next(seeds), 100_000, 1_000),
            "json", form=ref.GENERAL,
        ),
    ]
    return calls


def oracle(seed: int) -> list[Call]:
    """Simulations at 1e7 frames: sim does most of the work."""
    rng = random.Random(f"oracle:{seed}")
    seeds = (sim_seed("oracle", seed, i) for i in itertools.count())
    big, n, warm = 10_000_000, 2_000_000, 10_000
    sources = tuple(_jitter(rng, r, 0.03) for r in (500.0, 400.0, 200.0, 120.0))
    big_sims = [
        simulation("simulate", "b", 11e6, EXP800,
                   Sim("standard", 1, _jitter(rng, 1146.0, 0.03), next(seeds), big, warm), "json"),
        simulation("simulate", "b", 11e6, UNI,
                   Sim("aggregated", 5, _jitter(rng, 3000.0, 0.03), next(seeds), n, warm), "csv"),
        simulation("simulate", "b", 11e6, EMP,
                   Sim("aggregated", 20, _jitter(rng, 1500.0, 0.03), next(seeds), n, warm), "json"),
        simulation("simulate", "g", 54e6, DET12000,
                   Sim("standard", 1, sum(sources), next(seeds), n, warm, sources=sources), "csv"),
        simulation("validate", "b", 11e6, EXP800,
                   Sim("aggregated", 5, _jitter(rng, 2500.0, 0.03), next(seeds), n, warm),
                   "json", form=ref.GENERAL),
    ]
    light = [
        fig3_sweep("json"),
        preset_threshold(*FIG_PRESETS[-1]),
        fig3_gain(rng.randint(2, 10), rng.choice(ref.grid(*FIG3_GRID))),
        fig3_optimal_k(rng.choice(ref.grid(*FIG3_GRID)), 20),
        simulation("simulate", "b", 11e6, DET800,
                   Sim("standard", 1, _jitter(rng, 800.0, 0.05), next(seeds), 50_000, 1_000, replications=2),
                   "csv"),
    ]
    # The light calls come after every other long simulation, so that
    # their short timings are sampled three times as often; a pass counts
    # each distinct call once.
    return [big_sims[0], *light, *big_sims[1:3], *light, *big_sims[3:], *light]


def calls(workload: str, seed: int) -> list[Call]:
    return {"paper": paper, "dense": dense, "oracle": oracle}[workload](seed)
