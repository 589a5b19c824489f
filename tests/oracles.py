"""Independent brute-force reference implementations used by the tests.

These are written directly from the defining recursions, with no
memoization tricks shared with the library code, so they can serve as
oracles for exact comparisons.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from kst.params import beta


def oracle_psi(i: int, k: int, n: int, gamma: int) -> Fraction:
    """Value at the grid point i * gamma**(-k), by direct recursion.

    Works on the integer numerator i at depth k. 0 <= i <= gamma**k is
    accepted; i == gamma**k is the carry endpoint, pinned to 1.
    """
    if i == gamma**k:
        return Fraction(1)
    if not (0 <= i < gamma**k):
        raise ValueError("numerator out of range")
    if k == 1:
        return Fraction(i, gamma)
    last = i % gamma
    if last == 0:
        return oracle_psi(i // gamma, k - 1, n, gamma)
    if last < gamma - 1:
        return oracle_psi(i - last, k, n, gamma) + last * Fraction(1, gamma ** beta(n, k))
    a = oracle_psi(i - 1, k, n, gamma)
    b = oracle_psi((i + 1) // gamma, k - 1, n, gamma)
    return (a + b) / 2


def oracle_closed_form(digits, n: int, gamma: int) -> Fraction:
    """sum_l i_l * gamma**(-beta_n(l)); valid when all digits < gamma-1."""
    acc = Fraction(0)
    for pos, d in enumerate(digits, start=1):
        acc += d * Fraction(1, gamma ** beta(n, pos))
    return acc


def dense_phi_sum(state, j: int, y: float) -> float:
    """Outer-function value by brute summation over every stored bump."""
    total = 0.0
    for layer in state.outer[j].layers:
        for xi, coeff in zip(layer.xi, layer.coeff):
            t1 = min(max(layer.slope * (y - xi) + 1.0, 0.0), 1.0)
            t2 = min(max(layer.slope * (y - xi - layer.plateau), 0.0), 1.0)
            total += coeff * (t1 - t2)
    return total


def dag_forward(net, X) -> np.ndarray:
    """Network outputs at the rows of X, by a loop over the units in
    (layer, id) order that sums each unit's incoming edges in turn.

    Reads only ``net.units``, ``net.edges`` and ``net.output_ids``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    units = sorted(net.units, key=lambda u: (u.layer, u.id))
    incoming = {u.id: [] for u in units}
    for src, dst, w in net.edges:
        incoming[dst].append((src, w))
    inputs = [u.id for u in units if u.kind == "input"]
    vals = {uid: X[:, col] for col, uid in enumerate(inputs)}
    for unit in units:
        if unit.kind == "input":
            continue
        acc = np.full(X.shape[0], unit.bias)
        for src, w in incoming[unit.id]:
            acc = acc + w * vals[src]
        vals[unit.id] = np.maximum(acc, 0.0) if unit.kind == "relu" else acc
    return np.stack([vals[o] for o in net.output_ids], axis=1)


def json_network(doc: dict) -> SimpleNamespace:
    """The units, edges and outputs of a ``--out-net`` document, in the
    shape ``dag_forward`` reads."""
    u, e = doc["units"], doc["edges"]
    units = [
        SimpleNamespace(id=i, kind=kind, layer=layer, bias=float(bias))
        for i, (kind, layer, bias) in enumerate(zip(u["kind"], u["layer"], u["bias"]))
    ]
    edges = [(s, d, float(w)) for s, d, w in zip(e["from"], e["to"], e["w"])]
    return SimpleNamespace(units=units, edges=edges, output_ids=doc["meta"]["outputs"])
