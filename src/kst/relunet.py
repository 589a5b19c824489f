"""ReLU networks stored as per-layer columns, a univariate
piecewise-linear builder, and the assembly of the full decomposition
network.

A ``ReluNetwork`` keeps its units as kind/layer/bias arrays in
layer-major order, so a unit's id is its position and each layer is a
contiguous range, and its edges as src/dst/w arrays sorted by
(dst, src). The forward pass runs layer by layer over blocks of points,
in one (points x units) value array and one term array allocated per
call. A layer reads its sources as a slice or by one gather, weights
them, sums them per destination and adds the bias; then ReLU is applied
in place on the relu units. A relu layer of one-edge, weight-1 units
whose sources are not one slice, read only by the next layer as its
whole source slice and holding no output (the hinges of a univariate
net), is never stored: per cache-sized chunk of the next layer, each
run of hinges reading one source unit is added to their biases in the
term array, then rectified, weighted and summed per unit.

The hinge coefficients of a ``build_univariate`` interpolant spell it
as c_0 + sum_i a_i * ReLU(x - t_i), a depth-2 network linear in the
knot count that only the assembled network builds. The assembly
replicates the inner net once per (coordinate, family) pair with the
family shift applied through hinge biases, wires the weighted sums into
one outer-net copy per family, and sums the copies, filling its columns
by whole-array operations, never one Python object per unit;
``json_parts`` writes a network's JSON text from the same columns.

Network size W counts edges plus nonzero biases; depth L is the largest
layer index with inputs at 0. Bulk evaluation of assembled networks
goes through the interpolant form, which the tests pin to the explicit
forward pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, DomainError, InternalCheckError
from .params import KstParams, LambdaCoeffs, images

MATERIALIZE_UNIT_CAP = 2_000_000
# Points per forward block are chosen so that one block's (points x
# units) values and (points x edges) terms stay under this many floats
# (8 MB each); blocks that fit in cache run faster. Each call allocates
# both once, the terms as wide as the widest layer or chunk using them.
FORWARD_BLOCK_ELEMENTS = 1 << 20
# Hinges evaluated inside the sums that read them go in chunks of whole
# sums whose terms per block stay under this many floats (512 KB, in L2).
FUSED_CHUNK_ELEMENTS = 1 << 16
# build_univariate and decompose.phi_on_knots audit their cells in
# blocks of this many, so one block's interior audit points (cells times
# the audit factor less one) take a few MB, whatever the knot count.
AUDIT_BLOCK_CELLS = 1 << 14
KINDS = ("input", "relu", "linear")
_ROW_CHUNK = 1 << 16


class Unit(NamedTuple):
    id: int
    kind: str  # "input" | "relu" | "linear"
    layer: int
    bias: float


class _Rows:
    """Read-only view of parallel columns as rows of Python scalars."""

    def __init__(self, make: Callable, columns: Sequence[np.ndarray]):
        self._make = make
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        for start in range(0, len(self), _ROW_CHUNK):
            chunk = [c[start : start + _ROW_CHUNK].tolist() for c in self._columns]
            yield from map(self._make, *chunk)


def _int_cells(values: np.ndarray) -> np.ndarray:
    """Decimal text of an int column as bytes, each number followed by
    a comma. Digits are peeled in numpy into a fixed-width matrix, right
    aligned after a sign cell, and the used cells of each row are kept."""
    mag = np.abs(values).astype(np.uint64)
    width = len(str(int(mag.max())))
    mag = mag.astype(np.uint32 if width <= 9 else np.uint64)
    cells = np.empty((len(mag), width + 2), dtype=np.uint8)
    cells[:, 0] = ord("-")
    cells[:, -1] = ord(",")
    rest = mag
    for col in range(width, 0, -1):
        quotient = rest // 10
        cells[:, col] = (rest - quotient * 10).astype(np.uint8) + ord("0")
        rest = quotient
    digits = 1 + np.searchsorted(10 ** np.arange(1, width, dtype=mag.dtype), mag, side="right")
    # row d of patterns keeps the last d digit cells and the comma
    patterns = np.arange(width + 2) >= np.arange(width + 1, -1, -1)[:, None]
    keep = patterns[digits]
    keep[:, 0] = values < 0
    return cells[keep]


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)``, sorting one key per run
    of equal neighbours: the columns of a network come in long runs."""
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    distinct, inverse = np.unique(keys[starts], return_inverse=True)
    return distinct, np.repeat(inverse, np.diff(np.append(starts, len(keys))))


def _text_cells(texts: list[str]) -> Callable:
    """A function from indices into texts to the bytes of those texts
    laid end to end, gathered through a fixed-width table of texts."""
    table = np.array(texts, dtype="S")
    rows = table.view(np.uint8).reshape(len(table), table.dtype.itemsize)
    keep = np.arange(rows.shape[1]) < np.char.str_len(table)[:, None]
    return lambda index: rows[index][keep[index]]


def _column_parts(values: np.ndarray) -> list:
    """A numpy column as the byte parts of a JSON array: ints as
    decimals, floats as quoted 17-digit decimals, strings quoted.
    Weights and biases repeat across the copies of the inner net, so
    each distinct float bit pattern (signed zeros apart) is formatted
    once and shared, and each distinct string is quoted once. Rows are
    encoded in chunks, so the fixed-width temporaries stay small."""
    if values.size == 0:
        return [b"[]"]
    if values.dtype.kind in "iu":
        source, encode = values, _int_cells
    elif values.dtype.kind == "f":
        bits, source = _distinct(np.asarray(values, dtype=np.float64).view(np.int64))
        encode = _text_cells(['"%.17g",' % v for v in bits.view(np.float64).tolist()])
    elif values.dtype.kind == "U":
        distinct, source = _distinct(values)
        encode = _text_cells([json.dumps(v) + "," for v in distinct.tolist()])
    else:
        raise InternalCheckError(f"no JSON text for a column of dtype {values.dtype}")
    cells = [encode(source[start : start + _ROW_CHUNK])
             for start in range(0, len(source), _ROW_CHUNK)]
    cells[-1] = cells[-1][:-1]
    return [b"[", *cells, b"]"]


def json_parts(doc) -> list:
    """Compact JSON of a document whose leaves may be numpy columns, as
    byte parts to be written in order. Joined, they equal
    ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` with each
    int column spelled as its list, each float column as the list of
    its ``%.17g`` strings and each string column as its list; a list
    of columns is a list of those lists."""
    if isinstance(doc, np.ndarray):
        return _column_parts(doc)
    if isinstance(doc, list) and doc and all(isinstance(c, np.ndarray) for c in doc):
        parts = [part for column in doc for part in [b","] + _column_parts(column)]
        return [b"[", *parts[1:], b"]"]
    if isinstance(doc, dict):
        parts = [b"{"]
        for i, key in enumerate(sorted(doc)):
            parts.append(b"," * (i > 0) + json.dumps(str(key)).encode() + b":")
            parts.extend(json_parts(doc[key]))
        return parts + [b"}"]
    return [json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()]


class ReluNetwork:
    """Immutable layered network of ReLU and linear units, as columns.

    Units are numbered in layer-major order; layer 0 holds exactly the
    input units. Edges run from a lower to a higher layer (skip
    connections allowed), are sorted by (dst, src), and every unit past
    layer 0 has at least one incoming edge.
    """

    def __init__(
        self,
        kind: Sequence[str],
        layer: Sequence[int],
        bias: Sequence[float],
        src: Sequence[int],
        dst: Sequence[int],
        w: Sequence[float],
        output_ids: Sequence[int],
    ):
        self.kind = np.asarray(kind, dtype=str)
        self.layer = np.asarray(layer, dtype=np.int64)
        self.bias = np.asarray(bias, dtype=float)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.w = np.asarray(w, dtype=float)
        self.output_ids = [int(o) for o in output_ids]
        n_units = len(self.layer)
        if not (len(self.kind) == len(self.bias) == n_units > 0):
            raise InternalCheckError("unit columns are empty or differ in length")
        if not len(self.src) == len(self.dst) == len(self.w):
            raise InternalCheckError("edge columns differ in length")
        if not np.all(np.isin(self.kind, KINDS)):
            raise InternalCheckError(f"unit kinds must be among {KINDS}")
        if np.any(np.diff(self.layer) < 0):
            raise InternalCheckError("units are not in layer-major order")
        if self.layer[0] < 0:
            raise InternalCheckError(f"unit 0 has the negative layer index {self.layer[0]}")
        if not np.array_equal(self.kind == "input", self.layer == 0):
            raise InternalCheckError("layer 0 must hold exactly the input units")
        ids = np.concatenate([self.src, self.dst, self.output_ids])
        if ids.size and (ids.min() < 0 or ids.max() >= n_units):
            raise InternalCheckError("unit id out of range")
        if np.any(np.diff(self.dst * n_units + self.src) < 0):
            raise InternalCheckError("edges are not sorted by (dst, src)")
        bad = np.flatnonzero(self.layer[self.dst] <= self.layer[self.src])
        if bad.size:
            s, d = self.src[bad[0]], self.dst[bad[0]]
            raise InternalCheckError(f"edge {s}->{d} does not increase the layer index")
        fed = np.bincount(self.dst, minlength=n_units) > 0
        orphans = np.flatnonzero(~fed & (self.layer > 0))
        if orphans.size:
            raise InternalCheckError(f"unit {orphans[0]} has no incoming edge")
        self.n_inputs = int(np.count_nonzero(self.layer == 0))
        self._plan = [self._layer_plan(lay) for lay in np.unique(self.layer[self.n_inputs :])]
        for i in range(len(self._plan) - 1, 0, -1):
            if fused := self._fused_plan(*self._plan[i - 1 : i + 1]):
                self._plan[i - 1 : i + 1] = [fused]
        self._widest = max(step[-1] for step in self._plan)

    def _layer_plan(self, lay: int) -> tuple:
        """Unit range, sources, weights (None when all are 1), per-unit
        edge heads (None when every unit has one edge), ReLU selector
        (a bool when uniform) and edge count of one layer. The sources
        are a slice when contiguous and an index array otherwise."""
        u0, u1 = np.searchsorted(self.layer, [lay, lay + 1])
        e0, e1 = np.searchsorted(self.dst, [u0, u1])
        sources = self.src[e0:e1]
        weights = self.w[e0:e1]
        if np.all(weights == 1.0):
            weights = None
        heads = None
        if e1 - e0 > u1 - u0:
            heads = np.searchsorted(self.dst[e0:e1], np.arange(u0, u1))
        if sources[-1] - sources[0] == e1 - e0 - 1 and np.all(np.diff(sources) == 1):
            sources = slice(int(sources[0]), int(sources[-1]) + 1)
        relu = self.kind[u0:u1] == "relu"
        relu = bool(relu[0]) if np.all(relu == relu[0]) else relu
        return slice(int(u0), int(u1)), sources, weights, heads, relu, int(e1 - e0)

    def _fused_plan(self, hinges: tuple, sums: tuple) -> tuple | None:
        """The step of the sums that evaluates the hinges inside them, or
        None unless they qualify (see the module docstring). Its sources
        are (sum units, hinge runs, hinge biases, weights, heads) chunks,
        edges counted from the chunk's first, where a run (s, a, b) reads
        source unit s into edges a:b; its edge count is the widest's."""
        h, h_sources, h_weights, h_heads, h_relu, n = hinges
        units, sources, weights, heads, relu, _ = sums
        # only the edges into later layers could read the hinges again
        later = np.concatenate([self.src[np.searchsorted(self.dst, units.stop) :], self.output_ids])
        if not (isinstance(h_sources, np.ndarray) and h_weights is None and h_heads is None
                and h_relu is True and isinstance(sources, slice) and sources == h
                and not np.any((later >= h.start) & (later < h.stop))):
            return None
        starts = np.flatnonzero(np.diff(h_sources, prepend=-1)).tolist()
        runs = [(int(h_sources[a]), a, b) for a, b in zip(starts, starts[1:] + [n])]
        bounds = np.append(np.arange(n) if heads is None else heads, n)
        limit = max(1, FUSED_CHUNK_ELEMENTS // self._block_rows())
        chunks, u = [], 0
        while u < len(bounds) - 1:
            v = max(u + 1, int(np.searchsorted(bounds, bounds[u] + limit, side="right")) - 1)
            a0, a1 = int(bounds[u]), int(bounds[v])
            cut = [(s, max(a, a0) - a0, min(b, a1) - a0) for s, a, b in runs if a < a1 and b > a0]
            chunks.append((slice(units.start + u, units.start + v), cut, self.bias[h][a0:a1],
                           None if weights is None else weights[a0:a1], bounds[u:v] - a0))
            u = v
        return units, tuple(chunks), None, None, relu, max(len(c[2]) for c in chunks)

    def _block_rows(self) -> int:
        """Points per forward block (see FORWARD_BLOCK_ELEMENTS)."""
        return max(1, FORWARD_BLOCK_ELEMENTS // max(len(self.w), len(self.layer)))

    @property
    def W(self) -> int:
        return len(self.w) + int(np.count_nonzero(self.bias))

    @property
    def L(self) -> int:
        return int(self.layer[-1])

    @property
    def units(self) -> _Rows:
        """The units as ``Unit`` rows, built on access."""
        ids = np.arange(len(self.layer))
        return _Rows(Unit, (ids, self.kind, self.layer, self.bias))

    @property
    def edges(self) -> _Rows:
        """The edges as (src, dst, w) tuples, built on access."""
        return _Rows(lambda s, d, w: (s, d, w), (self.src, self.dst, self.w))

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Outputs at the rows of X, as a (points, outputs) array."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_inputs:
            raise DomainError(f"expected {self.n_inputs} inputs, got {X.shape[1]}")
        out = np.empty((X.shape[0], len(self.output_ids)))
        step = self._block_rows()
        rows = min(step, X.shape[0])
        vals = np.empty((rows, len(self.layer)))
        terms = np.empty(rows * self._widest)
        for start in range(0, X.shape[0], step):
            block = X[start : start + step]
            out[start : start + step] = self._forward(block, vals[: len(block)], terms)
        return out

    def _forward(self, X: np.ndarray, vals: np.ndarray, buffer: np.ndarray) -> np.ndarray:
        """Outputs at the rows of X, computed in vals, a (points, units)
        buffer, with buffer holding the (points x edges) terms of a layer
        or chunk."""
        vals[:, : self.n_inputs] = X
        for units, sources, weights, heads, relu, _ in self._plan:
            out, bias = vals[:, units], self.bias[units]
            if isinstance(sources, tuple):
                for sums, runs, h_bias, w, h in sources:
                    terms = buffer[: len(X) * len(h_bias)].reshape(len(X), -1)
                    for s, a, b in runs:
                        np.add(vals[:, s, None], h_bias[a:b], out=terms[:, a:b])
                    np.maximum(terms, 0.0, out=terms)
                    if w is not None:
                        np.multiply(terms, w, out=terms)
                    np.add(np.add.reduceat(terms, h, axis=1), self.bias[sums], out=vals[:, sums])
            else:
                if isinstance(sources, slice):
                    terms = vals[:, sources]
                else:
                    terms = np.take(vals, sources, axis=1)
                if weights is not None:
                    terms = np.multiply(terms, weights,
                                        out=buffer[: terms.size].reshape(terms.shape))
                if heads is not None:
                    terms = np.add.reduceat(terms, heads, axis=1)
                np.add(terms, bias, out=out)
            if relu is True:
                np.maximum(out, 0.0, out=out)
            elif relu is not False:
                out[:, relu] = np.maximum(out[:, relu], 0.0)
        return vals[:, self.output_ids]

    def to_json_dict(self) -> dict:
        """The network document, its columns left as arrays; render it
        with ``json_parts``."""
        return {
            "units": {"kind": self.kind, "layer": self.layer, "bias": self.bias},
            "edges": {"from": self.src, "to": self.dst, "w": self.w},
            "meta": {"W": self.W, "L": self.L, "outputs": self.output_ids},
        }


@dataclass
class UnivariateNet:
    """Piecewise-linear interpolant of a reference function on [0, M];
    ``hinge_coeffs`` realize it exactly as a depth-2 ReLU network of
    size ``W``, which the assembly wires in."""

    knots: np.ndarray
    values: np.ndarray
    domain: float
    eps_measured: float

    @property
    def n_segments(self) -> int:
        return len(self.knots) - 1

    def eval(self, x) -> np.ndarray:
        """The interpolant at x, of x's shape. np.interp starts each
        point's knot search from the previous point's cell, so the points
        go through it in ascending order, from one argsort, and their
        values are scattered back: each is np.interp's value at its
        point, bit for bit."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        order = np.argsort(flat)
        out = np.empty_like(flat)
        out[order] = np.interp(flat[order], self.knots, self.values)
        return out.reshape(x.shape)

    def hinge_coeffs(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(c0, hinge positions t_i, jump coefficients a_i)."""
        slopes = np.diff(self.values) / np.diff(self.knots)
        a = np.empty_like(slopes)
        a[0] = slopes[0]
        a[1:] = np.diff(slopes)
        return float(self.values[0]), self.knots[:-1].copy(), a

    @property
    def W(self) -> int:
        t = self.knots[:-1]
        return 2 * len(t) + int(np.count_nonzero(t)) + int(self.values[0] != 0.0)

    @property
    def L(self) -> int:
        return 2


def audit_fractions(cells: int, audit_factor: int) -> np.ndarray:
    """The fractions i / factor, 0 < i < factor, at which the audit of
    an interpolant samples each of its cells: factor is at least
    audit_factor, and at least 1024 parts over all the cells."""
    factor = max(audit_factor, -(-1024 // cells))
    return np.arange(1, factor) / factor


def audit_points(left: np.ndarray, right: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The audit points left + (right - left) * frac of the cells
    [left, right], cell by cell in ascending order of frac."""
    return (left[:, None] + (right - left)[:, None] * frac).ravel()


def _sample(g: Callable, x: np.ndarray) -> np.ndarray:
    """g at the points x, refused unless it is finite and of x's shape."""
    y = np.asarray(g(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError("reference function is not vectorized")
    if not np.all(np.isfinite(y)):
        raise DomainError("reference function is not finite on the audit grid")
    return y


def build_univariate(
    g: Callable,
    M: float,
    N: int,
    knots: np.ndarray | None = None,
    audit_factor: int = 10,
    values: np.ndarray | None = None,
) -> UnivariateNet:
    """Interpolate g on [0, M] with N uniform segments (or given knots).

    g is pointwise: it maps an array to the array of its values at each
    point. It is called once on the knots, which gives the knot values
    unless ``values`` supplies them (exact samples, when g is a cheaper
    approximation of them), and then on the interior audit points of
    blocks of ``AUDIT_BLOCK_CELLS`` cells. The audit refines every cell
    at least ``audit_factor`` times, more for coarse builds so the sup
    estimate is not limited by the audit density, and each audit point
    is evaluated once. The measured error is the max deviation of the
    interpolant from g over the audit points, knots included. A
    non-finite value of g anywhere on them is refused with DomainError.
    Memory is O(knots): the audit grid is never held whole. An
    ``audit_factor`` below 2 would audit the knots alone, so DomainError
    refuses it.
    """
    if audit_factor < 2:
        raise DomainError(f"audit_factor must be at least 2, got {audit_factor}")
    if knots is None:
        if N < 1:
            raise DomainError("N must be >= 1")
        knots = np.linspace(0.0, float(M), N + 1)
    else:
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 1 or len(knots) < 2:
            raise DomainError("need at least two knots")
        if np.any(np.diff(knots) <= 0):
            raise DomainError("knots must be strictly increasing")
        if knots[0] != 0.0 or abs(knots[-1] - M) > 1e-12:
            raise DomainError("knots must span [0, M]")
    # the knots are the audit points of fraction 0; the interpolant
    # deviates from g there only when the values are supplied
    g_knots = _sample(g, knots)
    eps = 0.0
    if values is None:
        values = g_knots if g_knots.base is None else g_knots.copy()
    else:
        values = np.asarray(values, dtype=float)
        if values.shape != knots.shape or not np.all(np.isfinite(values)):
            raise DomainError("knot values are not finite or do not match the knot set")
        eps = float(np.max(np.abs(g_knots - values)))
    frac = audit_fractions(len(knots) - 1, audit_factor)
    for s in range(0, len(knots) - 1, AUDIT_BLOCK_CELLS):
        xp = knots[s : s + AUDIT_BLOCK_CELLS + 1]
        fp = values[s : s + AUDIT_BLOCK_CELLS + 1]
        x = audit_points(xp[:-1], xp[1:], frac)
        deviation = np.abs(_sample(g, x) - np.interp(x, xp, fp))
        eps = max(eps, float(np.max(deviation, initial=0.0)))
    return UnivariateNet(
        knots=knots,
        values=values,
        domain=float(M),
        eps_measured=eps,
    )


@dataclass
class AssembledKst:
    """The full decomposition network with its size accounting.

    ``network`` materializes the explicit DAG on demand (refused above a
    unit cap); bulk evaluation composes the univariate interpolants,
    which the equivalence tests pin to the explicit forward pass.
    """

    psi_net: UnivariateNet
    phi_nets: list[UnivariateNet]
    params: KstParams
    lam_floats: np.ndarray
    W: int
    L: int
    fig3_W: int
    fig3_depth: int
    aggregation_weights: int
    _network: ReluNetwork | None = field(default=None, repr=False)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Outputs at the rows of X, through the interpolants."""
        return self.eval_columns(np.atleast_2d(np.asarray(X, dtype=float)).T)

    def eval_columns(self, columns) -> np.ndarray:
        """Outputs at coordinate columns, broadcast as images does: the sum
        in family order of each outer net at its images."""
        ys = images(self.psi_net.eval, self.lam_floats, float(self.params.a), columns,
                    len(self.phi_nets))
        return sum(net.eval(y.ravel()).reshape(y.shape) for net, y in zip(self.phi_nets, ys))

    @property
    def unit_count(self) -> int:
        p = self.params
        n_psi = self.psi_net.n_segments
        return (
            p.n
            + p.n * (p.m + 1) * (n_psi + 1)
            + (p.m + 1)
            + sum(net.n_segments + 1 for net in self.phi_nets)
            + 1
        )

    @property
    def network(self) -> ReluNetwork:
        if self._network is None:
            if self.unit_count > MATERIALIZE_UNIT_CAP:
                raise BudgetError(f"{self.unit_count} units exceeds the materialization cap")
            self._network = _materialize(self)
            if self._network.W != self.W or self._network.L != self.L:
                raise InternalCheckError("assembly accounting mismatch")
        return self._network


def assemble_kst(
    psi_net: UnivariateNet,
    phi_nets: Sequence[UnivariateNet],
    params: KstParams,
    lambdas: LambdaCoeffs,
) -> AssembledKst:
    """Wire the univariate nets into the full approximant network."""
    p = params
    if len(phi_nets) != p.m + 1:
        raise DomainError(f"need {p.m + 1} outer nets, got {len(phi_nets)}")
    a_f = float(p.a)
    if psi_net.domain < 1.0 + p.m * a_f - 1e-12:
        raise DomainError("inner net domain does not cover [0, 1 + m*a]")
    phi_sup = float(p.phi_domain_sup)
    for net in phi_nets:
        if net.domain < phi_sup - 1e-9:
            raise DomainError("outer net domain does not cover the image interval")

    t_psi = psi_net.knots[:-1]
    W_psi = psi_net.W
    W_phis = [net.W for net in phi_nets]

    # Exact edge and bias accounting of the assembled graph. Each inner
    # copy keeps its 2N edges but the family shift changes which hinge
    # biases vanish; the aggregation term collects the lambda edges, the
    # final sum, and those bias deltas.
    copies_bias_delta = 0
    for j in range(p.m + 1):
        shifted_nonzero = int(np.count_nonzero(j * a_f - t_psi))
        copies_bias_delta += p.n * (shifted_nonzero - int(np.count_nonzero(t_psi)))
    lambda_edges = p.n * (p.m + 1)
    sum_edges = p.m + 1
    aggregation = lambda_edges + sum_edges + copies_bias_delta
    W_total = p.n * (p.m + 1) * W_psi + sum(W_phis) + aggregation

    fig3 = (2 * p.n**2 + p.n) * W_psi + (2 * p.n + 1) * W_phis[0]
    return AssembledKst(
        psi_net=psi_net,
        phi_nets=list(phi_nets),
        params=p,
        lam_floats=lambdas.floats,
        W=W_total,
        L=6,
        fig3_W=fig3,
        fig3_depth=psi_net.L + phi_nets[0].L,
        aggregation_weights=aggregation,
    )


def _materialize(asm: AssembledKst) -> ReluNetwork:
    p = asm.params
    n, fams = p.n, p.m + 1
    c0_psi, t_psi, a_psi = asm.psi_net.hinge_coeffs()
    phis = [net.hinge_coeffs() for net in asm.phi_nets]
    n_phi = np.asarray([len(t) for _, t, _ in phis])
    # Inner copy c = j * n + i applies family shift j to coordinate i.
    copies = n * fams
    j_of_copy = np.repeat(np.arange(fams), n)
    counts = [n, copies * len(t_psi), copies, fams, int(n_phi.sum()), fams, 1]
    # first unit id of layers 1..6
    psi_h, psi_out, agg, phi_h, phi_out, final = np.cumsum(counts)[:-1]
    bias = np.concatenate([
        np.zeros(n),
        (j_of_copy[:, None] * float(p.a) - t_psi[None, :]).ravel(),
        np.full(copies, c0_psi),
        np.zeros(fams),
        np.concatenate([-t for _, t, _ in phis]),
        [c0 for c0, _, _ in phis],
        [0.0],
    ])
    src = np.concatenate([
        np.repeat(np.tile(np.arange(n), fams), len(t_psi)),
        np.arange(psi_h, psi_out),
        np.arange(psi_out, agg),
        np.repeat(np.arange(agg, phi_h), n_phi),
        np.arange(phi_h, phi_out),
        np.arange(phi_out, final),
    ])
    dst = np.concatenate([
        np.arange(psi_h, psi_out),
        np.repeat(np.arange(psi_out, agg), len(t_psi)),
        np.repeat(np.arange(agg, phi_h), n),
        np.arange(phi_h, phi_out),
        np.repeat(np.arange(phi_out, final), n_phi),
        np.full(fams, final),
    ])
    w = np.concatenate([
        np.ones(copies * len(t_psi)),
        np.tile(a_psi, copies),
        np.tile(asm.lam_floats, fams),
        np.ones(int(n_phi.sum())),
        np.concatenate([a for _, _, a in phis]),
        np.ones(fams),
    ])
    layer = np.repeat(np.arange(len(counts)), counts)
    kinds = np.asarray(("input", "relu", "linear", "linear", "relu", "linear", "linear"))
    return ReluNetwork(kinds[layer], layer, bias=bias, src=src, dst=dst, w=w, output_ids=[final])
