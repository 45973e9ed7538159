"""Analytical performance/resource models and the design-space explorer.

The models score a candidate design without running anything:

* saving ratio:  (n_iteration / alpha) * sqrt(src*trg / (n_src_grp*n_trg_grp)),
  clamped into [0, 1] (the raw value is kept for inspection);
* filter latency:   n_trg_grp*n_src_grp*src*trg*d / n_iteration;
* compute latency:  src*trg*ratio_save*d / (blk^2*frequency*unroll*simd);
* bandwidth:        (src+trg)*d*bytes_per_value / total latency;
* resources:        per-block footprint * ceil(src/blk) * ceil(trg/blk).

Latency terms are taken as written and treated as a consistent relative
objective; their absolute units are not meaningful. The explorer scores
every configuration of finite per-parameter domains and returns the
feasible one of least total latency, ties going to the smaller config key.

Only the group counts shape a run; ``blk``, ``simd`` and ``unroll`` are
knobs of the model alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DivisionGuardError,
    NoFeasibleConfigError,
    RangeError,
    TableMissError,
)

def _check_int(name: str, value) -> None:
    """A design field is a whole number; a float or a bool is a TypeError
    (a config file turns it into ``ConfigError``)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DesignConfig:
    n_src_grp: int
    n_trg_grp: int
    # cost-model knobs: the explorer's latency and resource model reads
    # them, execution never does
    blk: int = 64
    simd: int = 1
    unroll: int = 1

    def __post_init__(self):
        for name in ("n_src_grp", "n_trg_grp", "blk", "simd", "unroll"):
            _check_int(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise RangeError(f"{name} must be >= 1")

    def key(self) -> tuple[int, ...]:
        return (self.n_src_grp, self.n_trg_grp, self.blk, self.simd, self.unroll)

    def kernel_key(self) -> tuple[int, int, int]:
        return (self.blk, self.simd, self.unroll)

    def to_json_dict(self) -> dict:
        return {
            "n_src_grp": self.n_src_grp,
            "n_trg_grp": self.n_trg_grp,
            "blk": self.blk,
            "simd": self.simd,
            "unroll": self.unroll,
        }


@dataclass(frozen=True)
class ProblemSpec:
    src_size: int
    trg_size: int
    d: int
    n_iteration: int
    alpha: float = 1.0  # point-distribution density calibration
    size_data_type: int = 32  # bits

    def __post_init__(self):
        sizes = (self.src_size, self.trg_size, self.d, self.n_iteration)
        for name, value in zip(("src_size", "trg_size", "d", "n_iteration"), sizes):
            _check_int(name, value)
        # at most 2**53, exact as floats, so the models' products stay finite
        if not all(1 <= value <= 2**53 for value in sizes):
            raise RangeError("sizes, dim, and iterations must lie in 1..2**53")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise RangeError("alpha must be finite and positive")
        if self.size_data_type not in (32, 64):
            raise RangeError("size_data_type must be 32 or 64 bits")


@dataclass(frozen=True)
class ResourceSingle:
    mem_blocks: int
    dsp: int
    alm: int


@dataclass
class PlatformSpec:
    frequency: float  # Hz
    bw_max: float  # bytes/s
    mem_max: int  # on-chip memory blocks
    cu_max: int  # computing units (DSPs)
    lu_max: int  # logic units (ALMs)
    resource_table: dict[tuple[int, int, int], ResourceSingle]

    def __post_init__(self):
        if min(self.frequency, self.bw_max) <= 0 or min(self.mem_max, self.cu_max, self.lu_max) < 0:
            raise RangeError("platform maxima must be positive")


@dataclass
class ModelReport:
    latency_filt: float
    latency_comp: float
    latency_total: float
    ratio_save_model: float
    ratio_save_raw: float
    bw_required: float
    resources: dict[str, int]
    feasible: bool
    violated: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "latency_filt": self.latency_filt,
            "latency_comp": self.latency_comp,
            "latency_total": self.latency_total,
            "ratio_save_model": self.ratio_save_model,
            "ratio_save_raw": self.ratio_save_raw,
            "bw_required": self.bw_required,
            "resources": dict(self.resources),
            "feasible": self.feasible,
            "violated": list(self.violated),
        }


# -- closed-form models ---------------------------------------------------


def model_saving_ratio(p: ProblemSpec, c: DesignConfig) -> tuple[float, float]:
    """Modeled fraction of distance work removed by filtering.

    Returns (clamped, raw). The raw form grows past 1 on realistic
    problems; the clamped value is what the latency model consumes.
    """
    raw = (p.n_iteration / p.alpha) * math.sqrt(
        (p.src_size * p.trg_size) / (c.n_src_grp * c.n_trg_grp)
    )
    return min(1.0, max(0.0, raw)), raw


def model_latency(
    p: ProblemSpec, c: DesignConfig, frequency: float, ratio_save: float | None = None
) -> tuple[float, float, float]:
    """(filter latency, compute latency, total). ``ratio_save`` defaults to
    the modeled clamped saving ratio; pass a measured value to reconcile
    the model against instrumentation."""
    if frequency <= 0:
        raise RangeError("frequency must be positive")
    if ratio_save is None:
        ratio_save = model_saving_ratio(p, c)[0]
    filt = (c.n_trg_grp * c.n_src_grp * p.src_size * p.trg_size * p.d) / p.n_iteration
    comp = (p.src_size * p.trg_size * ratio_save * p.d) / (
        c.blk**2 * frequency * c.unroll * c.simd
    )
    return filt, comp, filt + comp


def model_bandwidth(p: ProblemSpec, latency_total: float) -> float:
    """Required external bandwidth in bytes/s at the given total latency."""
    if latency_total <= 0:
        raise DivisionGuardError("latency must be positive to derive bandwidth")
    return (p.src_size + p.trg_size) * p.d * (p.size_data_type / 8) / latency_total


def estimate_resources(
    p: ProblemSpec, c: DesignConfig, platform: PlatformSpec
) -> dict[str, int]:
    """Scale the per-block footprint by the tile grid covering the problem."""
    single = platform.resource_table.get(c.kernel_key())
    if single is None:
        raise TableMissError(f"resource table has no entry for {c.kernel_key()}")
    tiles = math.ceil(p.src_size / c.blk) * math.ceil(p.trg_size / c.blk)
    return {
        "mem": single.mem_blocks * tiles,
        "dsp": single.dsp * tiles,
        "alm": single.alm * tiles,
    }


def validate_constraints(
    bw_required: float, resources: dict[str, int], platform: PlatformSpec
) -> tuple[bool, list[dict]]:
    """Check every design inequality; report each violation with margin."""
    checks = (
        ("bw", bw_required, platform.bw_max),
        ("mem", resources["mem"], platform.mem_max),
        ("dsp", resources["dsp"], platform.cu_max),
        ("alm", resources["alm"], platform.lu_max),
    )
    violated = []
    for name, used, cap in checks:
        if used > cap:
            margin = (used - cap) / cap if cap > 0 else math.inf
            violated.append({"constraint": name, "used": used, "limit": cap, "margin": margin})
    return not violated, violated


def evaluate(p: ProblemSpec, c: DesignConfig, platform: PlatformSpec) -> ModelReport:
    ratio, raw = model_saving_ratio(p, c)
    filt, comp, total = model_latency(p, c, platform.frequency, ratio)
    bw = model_bandwidth(p, total)
    resources = estimate_resources(p, c, platform)
    feasible, violated = validate_constraints(bw, resources, platform)
    return ModelReport(
        latency_filt=filt,
        latency_comp=comp,
        latency_total=total,
        ratio_save_model=ratio,
        ratio_save_raw=raw,
        bw_required=bw,
        resources=resources,
        feasible=feasible,
        violated=violated,
    )


# -- search space ---------------------------------------------------------


@dataclass(frozen=True)
class Domains:
    n_src_grp: tuple[int, ...]
    n_trg_grp: tuple[int, ...]
    blk: tuple[int, ...]
    simd: tuple[int, ...]
    unroll: tuple[int, ...]

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            for value in values:
                _check_int(f.name, value)
            # as ProblemSpec's sizes: exact as floats, so the models stay finite
            if not values or not all(1 <= value <= 2**53 for value in values):
                raise RangeError(f"{f.name} must list values, each in 1..2**53")

    def all_configs(self):
        for s in self.n_src_grp:
            for t in self.n_trg_grp:
                for b in self.blk:
                    for sd in self.simd:
                        for u in self.unroll:
                            yield DesignConfig(s, t, b, sd, u)


def default_domains() -> Domains:
    return Domains(
        n_src_grp=(16, 32, 64, 128, 256),
        n_trg_grp=(4, 8, 16, 32, 64),
        blk=(16, 32, 64, 128, 256),
        simd=(1, 2, 4, 8),
        unroll=(1, 2, 4, 8),
    )


@dataclass
class ExplorerResult:
    best_config: DesignConfig
    report: ModelReport
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "best_config": self.best_config.to_json_dict(),
            "report": self.report.to_json_dict(),
            "evaluations": self.evaluations,
        }


def explore(
    p: ProblemSpec, platform: PlatformSpec, domains: Domains | None = None
) -> ExplorerResult:
    """The feasible config of minimum (total latency, config key), found
    by scoring every config of ``domains``.

    With none feasible, raises ``NoFeasibleConfigError`` naming the config
    of minimum (total violation margin, config key), the nearest miss.
    """
    domains = domains or default_domains()
    scored = [(c, evaluate(p, c, platform)) for c in domains.all_configs()]
    feasible = [(r.latency_total, c.key(), c, r) for c, r in scored if r.feasible]
    if feasible:
        _, _, config, report = min(feasible, key=lambda t: t[:2])
        return ExplorerResult(best_config=config, report=report, evaluations=len(scored))
    # ``Domains`` holds a value per parameter, so there is a nearest miss
    misses = [(sum(v["margin"] for v in r.violated), c.key(), c, r) for c, r in scored]
    _, _, config, report = min(misses, key=lambda t: t[:2])
    raise NoFeasibleConfigError(
        "no configuration satisfies the platform constraints",
        nearest_miss={"config": config.to_json_dict(), "violated": report.violated},
    )


# -- platform and resource-table files ------------------------------------


def synthetic_resource_single(blk: int, simd: int, unroll: int) -> ResourceSingle:
    """Synthetic per-block footprint, monotone in every parameter.

    Not measured on any device; shaped so bigger tiles want more buffer
    blocks and wider datapaths want more DSPs and logic.
    """
    mem = 1 + blk // 64 + simd // 4
    dsp = simd * unroll
    alm = 120 + 30 * simd * unroll + blk // 2
    return ResourceSingle(mem_blocks=mem, dsp=dsp, alm=alm)


def synthetic_resource_table(domains: Domains | None = None) -> dict:
    domains = domains or default_domains()
    table = {}
    for b in domains.blk:
        for s in domains.simd:
            for u in domains.unroll:
                table[(b, s, u)] = synthetic_resource_single(b, s, u)
    return table


def default_platform(domains: Domains | None = None) -> PlatformSpec:
    """Synthetic development platform with mid-range FPGA-like budgets."""
    return PlatformSpec(
        frequency=2.0e8,
        bw_max=2.5e10,
        mem_max=1537,
        cu_max=648,
        lu_max=128160,
        resource_table=synthetic_resource_table(domains),
    )


def _number(path, lineno: int, key: str, text: str, kind):
    """``kind(text)``, or a ConfigError naming the file, line and key."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(
            f"{path}:{lineno}: {key}: expected {kind.__name__}, found {text!r}"
        ) from None


def load_resource_table(path) -> dict:
    """CSV with header blk,simd,unroll,mem_blocks,dsp,alm."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expected = ["blk", "simd", "unroll", "mem_blocks", "dsp", "alm"]
        if [h.strip() for h in header] != expected:
            raise TableMissError(f"resource table header must be {','.join(expected)}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 6:
                raise TableMissError(f"line {lineno}: expected 6 fields")
            parts = [_number(path, lineno, k, c.strip(), int) for k, c in zip(expected, cells)]
            table[(parts[0], parts[1], parts[2])] = ResourceSingle(*parts[3:])
    return table


def parse_platform_file(path) -> PlatformSpec:
    """Line-oriented `key = value` platform description.

    Keys: frequency_hz, bw_max_bytes_per_s, mem_max_blocks, cu_max,
    lu_max, resource_table (path, relative to the platform file).
    """
    values: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise TableMissError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = (lineno, val.strip())
    required = ["frequency_hz", "bw_max_bytes_per_s", "mem_max_blocks", "cu_max", "lu_max", "resource_table"]
    missing = [k for k in required if k not in values]
    if missing:
        raise TableMissError(f"platform file missing keys: {', '.join(missing)}")

    def number(key: str, kind):
        lineno, text = values[key]
        return _number(path, lineno, key, text, kind)

    table_path = Path(values["resource_table"][1])
    if not table_path.is_absolute():
        table_path = path.parent / table_path
    return PlatformSpec(
        frequency=number("frequency_hz", float),
        bw_max=number("bw_max_bytes_per_s", float),
        mem_max=number("mem_max_blocks", int),
        cu_max=number("cu_max", int),
        lu_max=number("lu_max", int),
        resource_table=load_resource_table(table_path),
    )
