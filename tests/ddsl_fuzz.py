"""Random syntactically-valid Program generator for round-trip tests."""

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
