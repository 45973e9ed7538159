"""Random Program generators: ``random_program`` draws syntactically valid
programs for round-trip tests, most of which validation rejects, and
``lowerable_program`` draws programs that validate, each either lowerable
or one illegal variant that lowering must reject."""

from dataclasses import dataclass

import numpy as np

from accd.ddsl.ast import (
    ComputeDist,
    DistSelect,
    Iter,
    Program,
    SetDecl,
    SizeRef,
    StatusAssign,
    Update,
    VarDecl,
)

_METRICS = ("Unweighted L1", "Unweighted L2", "Weighted L1", "Weighted L2")
_SCOPES = ("smallest", "largest")
_DTYPES = ("int32", "float32", "float64")


def _ident(rng: np.random.Generator) -> str:
    first = rng.choice(list("abcdefgXYZ_"))
    rest = "".join(rng.choice(list("abc_019")) for _ in range(rng.integers(0, 6)))
    return str(first) + rest


_INT_EXTREMES = (-(2**31), 2**31 - 1)
_FLOAT_EXTREMES = (1e308, -1e308, 5e-324, -0.0)


def _literal(rng: np.random.Generator, dtype: str):
    extremes = _INT_EXTREMES if dtype == "int32" else _FLOAT_EXTREMES
    if rng.random() < 0.1:
        return extremes[int(rng.integers(0, len(extremes)))]
    if dtype == "int32":
        return int(rng.integers(-(2**31), 2**31 - 1))
    return float(rng.normal() * 10.0 ** float(rng.integers(-8, 8)))


def _szref(rng: np.random.Generator, names: list[str]) -> SizeRef:
    if names and rng.random() < 0.5:
        return SizeRef(name=str(rng.choice(names)))
    return SizeRef(value=int(rng.integers(0, 10_000)))


def random_program(rng: np.random.Generator) -> Program:
    decls = []
    var_names: list[str] = []
    used = set()
    for _ in range(int(rng.integers(1, 6))):
        name = _ident(rng)
        if name in used:
            continue
        used.add(name)
        dtype = str(rng.choice(_DTYPES))
        init = _literal(rng, dtype) if rng.random() < 0.8 else None
        decls.append(VarDecl(name=name, dtype=dtype, init=init))
        var_names.append(name)
    for _ in range(int(rng.integers(0, 5))):
        name = _ident(rng)
        if name in used:
            continue
        used.add(name)
        decls.append(
            SetDecl(
                name=name,
                dtype=str(rng.choice(_DTYPES)),
                size=_szref(rng, var_names),
                dim=_szref(rng, var_names),
            )
        )
    names = [d.name for d in decls] or ["x"]

    def pick() -> str:
        return str(rng.choice(names))

    def construct():
        k = rng.integers(0, 3)
        if k == 0:
            return ComputeDist(
                p1=pick(),
                p2=pick(),
                dist_mat=pick(),
                id_mat=pick(),
                dim=_szref(rng, var_names),
                metric=str(rng.choice(_METRICS)),
                weights=_szref(rng, var_names),
            )
        if k == 1:
            return DistSelect(
                dist_mat=pick(),
                id_mat=pick(),
                rng=_szref(rng, var_names),
                scope=str(rng.choice(_SCOPES)),
                out=pick(),
            )
        return Update(args=tuple(pick() for _ in range(rng.integers(2, 6))))

    body = []
    for _ in range(int(rng.integers(0, 4))):
        if rng.random() < 0.3:
            assigns = tuple(
                StatusAssign(name=pick(), value=bool(rng.random() < 0.5))
                for _ in range(rng.integers(0, 3))
            )
            cond = (
                SizeRef(name=_ident(rng))
                if rng.random() < 0.5
                else SizeRef(value=int(rng.integers(1, 1000)))
            )
            body.append(
                Iter(
                    condition=cond,
                    status_assigns=assigns,
                    body=tuple(construct() for _ in range(rng.integers(1, 4))),
                )
            )
        else:
            body.append(construct())
    return Program(decls=tuple(decls), body=tuple(body))


_KINDS = ("oneshot_two_set", "iterative_two_set", "iterative_self_set")
_ITERATIVE = _KINDS[1:]
# illegal variant -> (the pipeline kinds it applies to, the message lowering raises)
ILLEGAL = {
    "kmeans_count": (("iterative_two_set",), "nearest centre"),
    "status_self_set": (("iterative_self_set",), "status exit is k-means-only"),
    "largest": (_KINDS, 'only scope "smallest" is executable'),
    "radius_two_set": (_KINDS[:2], "requires an integer top-K range"),
    "count_self_set": (("iterative_self_set",), "self-set iteration requires a float radius"),
    "update_outside": (("oneshot_two_set",), "AccD_Update outside an iteration block"),
    "two_compdists": (_KINDS, "expected exactly one AccD_Comp_Dist, found 2"),
    "two_selects": (_KINDS, "expected exactly one AccD_Dist_Select, found 2"),
    "no_update": (_ITERATIVE, "iterative pipelines require an AccD_Update"),
    "update_source": (("iterative_two_set",), "two-set iteration must update the target set"),
    "update_other": (("iterative_self_set",), "self-set iteration must update its own set"),
    "two_iters": (_ITERATIVE, "multiple iteration blocks are not supported"),
}


@dataclass(frozen=True)
class Case:
    program: Program
    illegal: str | None  # the ILLEGAL variant drawn, if any
    plan: dict | None  # the plan JSON the program states; None if illegal


def lowerable_program(rng: np.random.Generator, max_size: int = 40) -> Case:
    """A program that validates: one of the three pipeline shapes under one
    of the four metrics, sizes and counts as literals or as ``DVar``
    declarations, fixed or status iteration, and with probability 0.4 one
    ILLEGAL variant. A radius is always a float ``DVar``: a range literal
    is an integer."""
    kind = _KINDS[int(rng.integers(0, 3))]
    self_set = kind == "iterative_self_set"
    variants = [v for v, (kinds, _) in ILLEGAL.items() if kind in kinds]
    illegal = variants[int(rng.integers(0, len(variants)))] if rng.random() < 0.4 else None
    metric = _METRICS[int(rng.integers(0, 4))]
    n, d = int(rng.integers(1, max_size + 1)), int(rng.integers(1, 5))
    m = n if self_set else int(rng.integers(2 if illegal == "kmeans_count" else 1, max_size + 1))
    decls: list = []

    def size(name: str, value: int) -> SizeRef:
        """``value`` as a literal, or as a new int ``DVar`` named ``name``."""
        if rng.random() < 0.5:
            return SizeRef(value=value)
        decls.append(VarDecl(name=name, dtype="int32", init=value))
        return SizeRef(name=name)

    n_ref, d_ref = size("n", n), size("D", d)
    m_ref = n_ref if self_set else size("m", m)
    if self_set != (illegal in ("radius_two_set", "count_self_set")):  # a radius
        value = float(rng.uniform(0.2, 2.0))
        dtype = str(rng.choice(_DTYPES[1:]))
        decls.append(VarDecl(name="R", dtype=dtype, init=value))
        rng_ref, out_cols = SizeRef(name="R"), m_ref
        if dtype == "float32":  # the radius a float variable holds
            value = float(np.float32(value))
    else:
        if kind != "iterative_two_set":
            value = int(rng.integers(1, m + 1))
        else:
            value = int(rng.integers(2, m + 1)) if illegal == "kmeans_count" else 1
        rng_ref = out_cols = size("K", value)
    trg = "P" if self_set else "Q"
    decls += [SetDecl("P", "float32", n_ref, d_ref)]
    decls += [] if self_set else [SetDecl("Q", "float32", m_ref, d_ref)]
    decls += [SetDecl("dm", "float32", n_ref, m_ref), SetDecl("im", "int32", n_ref, m_ref)]
    decls += [SetDecl("out", "int32", n_ref, out_cols)]
    weighted = metric.startswith("Weighted")
    if weighted:
        decls.append(SetDecl("w", "float32", SizeRef(value=1), d_ref))
    weights = SizeRef(name="w") if weighted else SizeRef(value=0)

    comp = ComputeDist("P", trg, "dm", "im", d_ref, metric, weights)
    scope = "largest" if illegal == "largest" else "smallest"
    sel = DistSelect("dm", "im", rng_ref, scope, "out")
    calls = [comp] * (1 + (illegal == "two_compdists")) + [sel] * (1 + (illegal == "two_selects"))
    max_iter = None
    if kind == "oneshot_two_set":
        body = calls + [Update((trg, "out"))] * (illegal == "update_outside")
    else:
        status = illegal == "status_self_set" or (not self_set and rng.random() < 0.5)
        updated = {"update_source": "P", "update_other": "out"}.get(illegal, trg)
        args = ((updated, "out") if self_set else (updated, "P", "out")) + ("S",) * status
        calls += [Update(args)] * (illegal != "no_update")
        steps = int(rng.integers(1, 6))
        cond = SizeRef(name="S") if status else SizeRef(value=steps)
        it = Iter(cond, (StatusAssign("S", False),) * status, tuple(calls))
        body = [it] * (1 + (illegal == "two_iters"))
        max_iter = None if status else steps
    plan = None if illegal else {
        "pipeline_kind": kind,
        "source_size": n,
        "target_size": m,
        "dim": d,
        "metric": metric,
        "weight_set": "w" if weighted else None,
        "select": float(value),
        "max_iter": max_iter,
    }
    return Case(Program(decls=tuple(decls), body=tuple(body)), illegal, plan)
