"""Monte Carlo campaigns over the sampler and counting modules.

Five experiment kinds: containment fractions across the appearance
threshold, normality of the standardized count, the split of the variance
between the edge and label components, the critical pinned-sparsity regime
against its predicted share, and the conditional normality of the edge
component at frozen latents.  A config is checked once, when it is built:
its fields, the block-assignment cap, and the conditions that make its
kind's aggregate meaningful (a CLT or a variance split above the
containment threshold, a KS floor on the replicates, a critical share on
an irregular graphon pinned at n rho^{m1} = c, whose predicted value is
computed then).  ``run_experiment`` then samples and counts each
replicate once, and every kind fills its record from that per-replicate
table; the replicate rows are that same table.

Determinism contract: every replicate draws its seed from
(config seed, n, replicate index), aggregates are computed from arrays in
replicate order, and serialized outputs carry no timing, so reruns are
byte-identical.  A cell's replicates run in one serial loop.

The engine calls ``replicate_seed``, ``sample`` (or ``resample_edges``)
and ``count`` once per replicate, in that order, so the sampler finds the
seed's child stream words in ``seeding``'s note of the last seed handed
out.  Those come from the block derivation in
``seeding``, which matches numpy's SeedSequence word for word.  The one
frozen-latent seed of a conditional_clt cell goes through numpy's
SeedSequence, which gives the same value without deriving a block for
it.  E[X | latents] depends on the latents only through the block
occupancy counts, so a cell records those and evaluates the conditional
mean once per distinct occupancy at its end.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .motif import Motif, _integer, density_exponents, named_motif
from .graphon import (
    StepGraphon,
    _real,
    critical_edge_variance_share,
    hom_density,
    is_motif_regular,
    named_graphon,
)
from .sampler import (
    SparsitySchedule,
    classify_regime,
    replicate_seed,
    resample_edges,
    sample,
    schedule_rho,
)
from .seeding import _numpy_replicate_seed
from .counting import (
    _conditional_from_occupancy,
    conditional_expected_count,
    count,
    expected_count,
)
from .stats import (
    KS_MIN_SAMPLES,
    NormalityReport,
    covariance_and_se,
    ks_test,
    mean_and_se,
    standardize,
    variance_shares,
)

# kinds whose aggregate needs gamma above the containment threshold, and
# how their refusal names the run
_ABOVE_CONTAINMENT = {"clt": "normality run",
                      "variance_ratio": "variance ratios"}
# kinds that KS-test a component of every cell
_KS_KINDS = ("clt", "critical_kappa", "conditional_clt")

# replicate-index namespace reserved for the frozen latent draw
_LATENT_TAG = 0xFEED0000


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_kind: str
    motif: Motif
    graphon: StepGraphon
    schedule: SparsitySchedule
    n_values: tuple
    replicates: int
    seed: int

    def __post_init__(self):
        if self.experiment_kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.experiment_kind!r}")
        object.__setattr__(self, "n_values", tuple(
            _integer(n, "n value") for n in self.n_values))
        object.__setattr__(self, "replicates",
                           _integer(self.replicates, "replicates"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly ascending")
        if any(n < 1 for n in self.n_values):
            raise ValueError("n values must be positive")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.replicates >= _LATENT_TAG:
            # an index of _LATENT_TAG would reuse the frozen latent seed
            raise ValueError(f"replicates must be below {_LATENT_TAG:#x}, "
                             f"the index reserved for the frozen latent draw")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        # every kind needs the expected count, so a (motif, graphon) pair
        # over the block-assignment cap is refused here, before sampling
        hom_density(self.motif, self.graphon)
        kind = self.experiment_kind
        if kind in _ABOVE_CONTAINMENT:
            regime = classify_regime(self.motif, self.schedule.gamma)
            if regime in ("below_containment", "at_containment"):
                raise ValueError(f"{_ABOVE_CONTAINMENT[kind]} not meaningful "
                                 f"in regime {regime!r}")
        if kind == "critical_kappa":
            if is_motif_regular(self.motif, self.graphon):
                raise ValueError("critical share undefined for a regular "
                                 "graphon")
            m1, c = _pinned_constant(self)
            if abs(self.schedule.gamma * m1 - 1.0) > 1e-9:
                raise ValueError("schedule exponent must equal 1/m1 for a "
                                 "pinned run")
            for n in self.n_values:
                if abs(n * schedule_rho(self.schedule, n) ** m1 - c) > 1e-9 * c:
                    raise ValueError(f"pinning broken at n={n}: "
                                     f"n rho^m1 != c")
            # every record carries the predicted share, so one that cannot
            # be computed is refused here, before sampling
            critical_edge_variance_share(self.motif, self.graphon, c)
        if kind in _KS_KINDS and self.replicates < KS_MIN_SAMPLES:
            raise ValueError(f"KS test needs at least {KS_MIN_SAMPLES} samples")

    def to_json_dict(self) -> dict:
        return {
            "experiment_kind": self.experiment_kind,
            "motif": self.motif.to_json_dict(),
            "graphon": self.graphon.to_json_dict(),
            "schedule": {"a": self.schedule.a, "gamma": self.schedule.gamma},
            "n_values": list(self.n_values),
            "replicates": self.replicates,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            experiment_kind=d["experiment_kind"],
            # a JSON motif or graphon is a built-in name or an inline dict
            motif=(named_motif(d["motif"]) if isinstance(d["motif"], str)
                   else Motif.from_json_dict(d["motif"])),
            graphon=(named_graphon(d["graphon"])
                     if isinstance(d["graphon"], str)
                     else StepGraphon.from_json_dict(d["graphon"])),
            schedule=SparsitySchedule(
                _real(d["schedule"]["a"], "schedule a"),
                _real(d["schedule"]["gamma"], "schedule gamma")),
            n_values=tuple(d["n_values"]),
            replicates=d["replicates"],
            seed=d["seed"],
        )


def _pinned_constant(cfg: ExperimentConfig) -> tuple:
    """(m1, c) of a pinned schedule: n rho^{m1} = c = a^{m1}."""
    m1 = float(density_exponents(cfg.motif).m1)
    return m1, cfg.schedule.a ** m1


@dataclass
class CellRecord:
    """Aggregates for one n; fields unused by an experiment kind stay None."""

    n: int
    rho: float
    replicates: int
    expected_count: float
    mean_x: float = None
    se_x: float = None
    var_x: float = None
    mean_within_4se: bool = None
    containment_fraction: float = None
    var_delta1: float = None
    var_delta2: float = None
    cov_delta12: float = None
    corr_delta12: float = None
    r1: float = None
    r2: float = None
    ks_x: NormalityReport = None
    ks_delta1: NormalityReport = None
    ks_delta2: NormalityReport = None
    c_value: float = None
    kappa_theory: float = None
    cond_ks: NormalityReport = None
    cond_mean: float = None
    cond_var_empirical: float = None

    def to_json_dict(self) -> dict:
        return {key: val for key, val in asdict(self).items()
                if val is not None}

    @staticmethod
    def from_json_dict(d: dict) -> "CellRecord":
        kwargs = dict(d)
        for key in ("ks_x", "ks_delta1", "ks_delta2", "cond_ks"):
            if key in kwargs:
                kwargs[key] = NormalityReport(**kwargs[key])
        return CellRecord(**kwargs)


@dataclass(eq=False)
class ReplicateCell:
    """Per-replicate table of one n cell, in replicate order.

    ``cond`` is E[X | latents] of each replicate (one constant under frozen
    latents), so delta1 = x - cond and delta2 = cond - expected.
    """

    n: int
    rho: float
    expected: float
    seed: np.ndarray
    x: np.ndarray
    cond: np.ndarray

    @property
    def delta1(self) -> np.ndarray:
        return self.x - self.cond

    @property
    def delta2(self) -> np.ndarray:
        return self.cond - self.expected


@dataclass
class ExperimentResult:
    experiment_kind: str
    config: dict
    records: list
    # the replicate cells the records aggregate; not serialized
    table: list = field(default_factory=list, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "experiment_kind": self.experiment_kind,
            "config": self.config,
            "records": [r.to_json_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentResult":
        return ExperimentResult(
            experiment_kind=d["experiment_kind"],
            config=d["config"],
            records=[CellRecord.from_json_dict(r) for r in d["records"]])


# ---------------------------------------------------------------------------
# the replicate engine


def _replicate_cell(cfg: ExperimentConfig, n: int) -> ReplicateCell:
    """Sample and count every replicate of one n cell.

    conditional_clt redraws only the edges on one frozen latent draw per n;
    every other kind draws fresh latents for each replicate.
    """
    m, w = cfg.motif, cfg.graphon
    rho = schedule_rho(cfg.schedule, n)
    # the seeds go straight into their array: a list of Python ints held
    # tiny_n's peak memory about 0.03 MB higher
    seeds = np.empty(cfg.replicates, dtype=np.uint64)
    xs, occupancy = [], []
    frozen = None
    if cfg.experiment_kind == "conditional_clt":
        lat_seed = _numpy_replicate_seed(cfg.seed, n, _LATENT_TAG)
        frozen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(lat_seed))).random(n)
        cond = conditional_expected_count(frozen, m, w, rho)
    for r in range(cfg.replicates):
        seed = replicate_seed(cfg.seed, n, r)
        seeds[r] = seed
        if frozen is None:
            g = sample(w, n, rho, seed)
            occupancy.append(g.occupancy)
        else:
            g = resample_edges(w, frozen, rho, seed)
        xs.append(count(g, m))
        # free the graph before the next one is drawn
        del g
    if frozen is None:
        # E[X | latents] depends on the latents through the occupancy
        # counts alone, so each distinct tuple is evaluated once
        means = {}
        for occ in occupancy:
            if occ not in means:
                means[occ] = _conditional_from_occupancy(occ, m, w, rho)
        conds = np.array([means[occ] for occ in occupancy], dtype=np.float64)
    else:
        conds = np.full(cfg.replicates, cond, dtype=np.float64)
    return ReplicateCell(n=n, rho=rho, expected=expected_count(m, w, n, rho),
                         seed=seeds,
                         x=np.array(xs, dtype=np.float64), cond=conds)


def _base_record(cfg, cell: ReplicateCell) -> CellRecord:
    xs, exp = cell.x, cell.expected
    # under frozen latents the replicate mean tracks the conditional
    # expectation, not the unconditional one
    centre = (float(cell.cond[0]) if cfg.experiment_kind == "conditional_clt"
              else exp)
    mean_x, se_x = mean_and_se(xs)
    ok = abs(mean_x - centre) <= 4.0 * se_x if se_x > 0 else mean_x == centre
    return CellRecord(n=cell.n, rho=cell.rho, replicates=cfg.replicates,
                      expected_count=exp, mean_x=mean_x, se_x=se_x,
                      var_x=float(np.var(xs, ddof=1)), mean_within_4se=ok)


def _ks_or_none(values) -> NormalityReport | None:
    sd = float(np.std(values, ddof=1))
    if sd == 0.0:
        return None
    return ks_test(standardize(values, float(np.mean(values)), sd))


# ---------------------------------------------------------------------------
# one aggregation of the replicate table per experiment kind


def _fill_containment(cfg, rec: CellRecord, cell: ReplicateCell):
    """Fraction of replicates containing the motif, against the mean bound."""
    rec.containment_fraction = float(np.mean(cell.x > 0))


def _fill_clt(cfg, rec: CellRecord, cell: ReplicateCell):
    """KS distance of the standardized count, plus both components.

    A valid config can still sample a count that never varies (a complete
    graph at rho = 1, say); that raises RuntimeError after sampling.
    """
    rec.ks_x = _ks_or_none(cell.x)
    if rec.ks_x is None:
        raise RuntimeError("zero empirical variance of the count")
    rec.ks_delta1 = _ks_or_none(cell.delta1)
    rec.ks_delta2 = _ks_or_none(cell.delta2)
    _fill_variance_ratio(cfg, rec, cell)


def _fill_variance_ratio(cfg, rec: CellRecord, cell: ReplicateCell):
    """Empirical shares of the two components in the total variance."""
    d1, d2 = cell.delta1, cell.delta2
    rec.var_delta1 = float(np.var(d1, ddof=1))
    rec.var_delta2 = float(np.var(d2, ddof=1))
    cov, _ = covariance_and_se(d1, d2)
    rec.cov_delta12 = cov
    denom = math.sqrt(rec.var_delta1 * rec.var_delta2)
    rec.corr_delta12 = cov / denom if denom > 0 else 0.0
    if rec.var_delta1 + rec.var_delta2 > 0:
        rec.r1, rec.r2 = variance_shares(rec.var_delta1, rec.var_delta2)


def _fill_critical_kappa(cfg, rec: CellRecord, cell: ReplicateCell):
    """Pinned-sparsity shares against the predicted critical share."""
    _fill_variance_ratio(cfg, rec, cell)
    _, rec.c_value = _pinned_constant(cfg)
    rec.kappa_theory = critical_edge_variance_share(cfg.motif, cfg.graphon,
                                                    rec.c_value)
    rec.ks_delta1 = _ks_or_none(cell.delta1)
    rec.ks_delta2 = _ks_or_none(cell.delta2)


def _fill_conditional_clt(cfg, rec: CellRecord, cell: ReplicateCell):
    """Edge-component normality at one frozen latent draw per n."""
    d1 = cell.delta1
    rec.cond_mean = float(cell.cond[0])
    rec.cond_var_empirical = float(np.var(d1, ddof=1))
    rec.cond_ks = _ks_or_none(d1)
    rec.ks_delta1 = rec.cond_ks


_FILLS = {
    "containment": _fill_containment,
    "clt": _fill_clt,
    "variance_ratio": _fill_variance_ratio,
    "critical_kappa": _fill_critical_kappa,
    "conditional_clt": _fill_conditional_clt,
}
EXPERIMENT_KINDS = tuple(_FILLS)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Sample every n cell of a campaign and fill one record per cell."""
    fill = _FILLS[cfg.experiment_kind]
    table = []
    records = []
    for n in cfg.n_values:
        cell = _replicate_cell(cfg, n)
        rec = _base_record(cfg, cell)
        fill(cfg, rec, cell)
        table.append(cell)
        records.append(rec)
    return ExperimentResult(experiment_kind=cfg.experiment_kind,
                            config=cfg.to_json_dict(),
                            records=records, table=table)


# ---------------------------------------------------------------------------
# per-replicate rows and file output

SUMMARY_CSV_COLUMNS = tuple(f.name for f in fields(CellRecord))

REPLICATE_CSV_HEADER = ("seed", "n", "rho", "x", "expected", "cond_expected",
                        "delta", "delta1", "delta2")


def replicate_rows(result: ExperimentResult) -> list:
    """One row per (n, replicate) of the result's own replicate table,
    columns as in REPLICATE_CSV_HEADER.

    Values are Python scalars, so the CSV writes them as the scalar
    computation would (numpy scalars repr differently).
    """
    rows = []
    for cell in result.table:
        R = cell.x.size
        rows.extend(zip(cell.seed.tolist(), [cell.n] * R, [cell.rho] * R,
                        cell.x.astype(np.int64).tolist(),
                        [cell.expected] * R, cell.cond.tolist(),
                        (cell.x - cell.expected).tolist(),
                        cell.delta1.tolist(), cell.delta2.tolist()))
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, NormalityReport):
        return repr(value.ks_statistic)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_result(result: ExperimentResult, out_dir,
                 replicate_table: list = None):
    """Write summary.json and summary.csv (and optionally replicates.csv).

    All files are byte-deterministic functions of the result contents.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(result.to_json())
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_CSV_COLUMNS)
        for rec in result.records:
            writer.writerow([_csv_cell(getattr(rec, col))
                             for col in SUMMARY_CSV_COLUMNS])
    if replicate_table is not None:
        with open(out / "replicates.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPLICATE_CSV_HEADER)
            for row in replicate_table:
                writer.writerow([_csv_cell(v) for v in row])
