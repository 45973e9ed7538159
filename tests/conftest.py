import re

import numpy as np
import pytest

from accd.dataset import brute_rows
from accd.ddsl.lowering import ExecutionPlan, SelectSpec
from accd.errors import RangeError
from accd.layout import LayoutPlan
from accd.metrics import MetricSpec

KMEANS_LISTING = """DVar K int 1;
DVar D int 20;
DVar psize int 1400;
DVar csize int 200;
DSet pSet float psize D;
DSet cSet float csize D;
DSet distMat float psize csize;
DSet idMat int psize csize;
DSet pkMat int psize K;
AccD_Iter(S){
    S = false;
    /* Compute the inter-dataset distances */
    AccD_Comp_Dist(pSet, cSet, distMat, idMat, D, "Unweighted L1", 0);
    /* Select the distances of interests */
    AccD_Dist_Select(distMat, idMat, K, "smallest", pkMat);
    /* Update the cluster center */
    AccD_Update(cSet, pSet, pkMat, S)
}
"""


def status_mode(text: str) -> str:
    """A program whose ``AccD_Iter(N)`` is turned to status mode: the block
    opens with ``S = false`` and its ``AccD_Update`` takes ``S``."""
    text = re.sub(r"AccD_Iter\(\w+\)\{", "AccD_Iter(S){\n    S = false;", text)
    return re.sub(r"AccD_Update\((\w+), (\w+)\);", r"AccD_Update(\1, \2, S);", text)


def make_plan(
    kind: str,
    n1: int,
    n2: int,
    d: int,
    select: SelectSpec,
    max_iter=None,
    metric="Unweighted L2",
) -> ExecutionPlan:
    return ExecutionPlan(
        pipeline_kind=kind,
        source_size=n1,
        target_size=n2,
        dim=d,
        metric_name=metric,
        weight_set=None,
        select=select,
        max_iter=max_iter,
    )


def pack_reversed(ds, gm) -> LayoutPlan:
    """``pack_intra_group``'s plan with the groups packed in the reverse of
    their id order, each group's members still in ascending id order."""
    sizes = gm.sizes[::-1]
    stops = np.cumsum(sizes)
    return LayoutPlan(
        point_perm=np.argsort(-gm.group_of, kind="stable"),
        group_slices=np.column_stack((stops - sizes, stops))[::-1],
    )


def direct_tile(a: np.ndarray, b: np.ndarray, metric: MetricSpec) -> np.ndarray:
    """Every pair's direct value in tile scale, which a kernel tile of ``a``
    against ``b`` is bounded against: ``brute_rows`` under L1, and under L2
    the sum of the metric's terms that direct differencing takes the root
    of (``metrics.difference_distance``)."""
    if metric.kind == "L1":
        return brute_rows(a, b, metric)
    diff = a[:, None, :] - b[None, :, :]
    diff *= diff
    if metric.weighted:
        diff *= metric.weights
    return np.add.reduce(diff, axis=-1)


def domain_scales(metrics: list[MetricSpec], sets: list[np.ndarray]) -> tuple[float, float]:
    """(inside, past): the largest scale found for ``sets`` that the
    ``check_domain`` of every metric admits, and a scale one rejects, within
    2^-40 of each other, by bisection on the exponent."""
    lo, hi = -1000.0, 1020.0

    def admitted(e: float) -> bool:
        with np.errstate(over="ignore"):  # an infinite scaled set is rejected
            scaled = [x * np.exp2(e) for x in sets]
        try:
            for metric in metrics:
                metric.check_domain(*scaled)
        except RangeError:
            return False
        return True

    assert admitted(lo) and not admitted(hi)
    while hi - lo > 2.0**-40 * max(1.0, abs(lo)):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return float(np.exp2(lo)), float(np.exp2(hi))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
