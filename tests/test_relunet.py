import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kst.decompose import init_state, iterate, lipschitz_report, phi_batch
from kst.errors import DomainError, InternalCheckError
from kst.params import lambda_coeffs, make_params
from kst import relunet
from kst.relunet import (
    ReluNetwork,
    assemble_kst,
    build_univariate,
    json_parts,
)
from kst.target import builtin_target, mesh_points
from oracles import (
    DigitPsi,
    audit_grid,
    columns_json_text,
    dag_forward,
    net_json_text,
    take_forward,
    univariate_network,
    whole_grid_univariate,
)


def one_row(net, x):
    return net.eval_batch([x])[0].tolist()


def single_relu():
    return ReluNetwork(
        kind=["input", "relu"], layer=[0, 1], bias=[0.0, 0.0],
        src=[0], dst=[1], w=[1.0], output_ids=[1],
    )


def two_hinges(bias2):
    """Columns of x -> w[2] ReLU(w[0] x) + w[3] ReLU(w[1] x + bias2), less w."""
    return dict(
        kind=["input", "relu", "relu", "linear"], layer=[0, 1, 1, 2],
        bias=[0.0, 0.0, bias2, 0.0], dst=[1, 2, 3, 3], src=[0, 0, 1, 2],
    )


class TestEvalNet:
    def test_single_relu(self):
        net = single_relu()
        assert one_row(net, [-1.0]) == [0.0]
        assert one_row(net, [2.5]) == [2.5]

    def test_identity_from_two_relus(self):
        net = ReluNetwork(**two_hinges(0.0), w=[1.0, -1.0, 1.0, -1.0], output_ids=[3])
        assert one_row(net, [0.7]) == [0.7]
        assert one_row(net, [-0.3]) == [-0.3]

    def test_clamp_realization(self):
        # sigma(x) = ReLU(x) - ReLU(x - 1)
        net = ReluNetwork(**two_hinges(-1.0), w=[1.0, 1.0, 1.0, -1.0], output_ids=[3])
        assert one_row(net, [0.5]) == [0.5]
        assert one_row(net, [2.0]) == [1.0]
        assert one_row(net, [-1.0]) == [0.0]

    def test_arity_check(self):
        with pytest.raises(DomainError):
            one_row(single_relu(), [1.0, 2.0])

    def test_batch_matches_single(self):
        net = single_relu()
        xs = np.linspace(-2, 2, 13).reshape(-1, 1)
        batch = net.eval_batch(xs)[:, 0]
        by_unit = dag_forward(net, xs)[:, 0]
        for x, got, want in zip(xs[:, 0], batch, by_unit):
            assert got == want

    def test_mixed_layer_with_skip_edge(self):
        # layer 1 mixes a hinge and a linear unit; the output also reads x
        net = ReluNetwork(
            kind=["input", "relu", "linear", "relu"], layer=[0, 1, 1, 2],
            bias=[0.0, -0.5, 0.25, 0.0], src=[0, 0, 0, 1, 2], dst=[1, 2, 3, 3, 3],
            w=[1.0, -2.0, 0.5, 1.0, 1.0], output_ids=[3, 2],
        )
        xs = np.linspace(-2, 2, 13).reshape(-1, 1)
        want = np.stack([np.maximum(0.5 * xs[:, 0] + np.maximum(xs[:, 0] - 0.5, 0.0)
                                    - 2.0 * xs[:, 0] + 0.25, 0.0),
                         -2.0 * xs[:, 0] + 0.25], axis=1)
        np.testing.assert_allclose(net.eval_batch(xs), want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(dag_forward(net, xs), want, rtol=0, atol=1e-15)

    def test_views_yield_python_scalars(self):
        # the hinges of x -> x * x on four segments of [0, 1]
        net = ReluNetwork(
            kind=["input"] + ["relu"] * 4 + ["linear"], layer=[0, 1, 1, 1, 1, 2],
            bias=[0.0, 0.0, -0.25, -0.5, -0.75, 0.0],
            src=[0, 0, 0, 0, 1, 2, 3, 4], dst=[1, 2, 3, 4, 5, 5, 5, 5],
            w=[1.0, 1.0, 1.0, 1.0, 0.25, 0.5, 0.5, 0.5], output_ids=[5],
        )
        units, edges = list(net.units), list(net.edges)
        assert len(units) == len(net.units) == 6
        assert len(edges) == len(net.edges) == 8
        assert [u.id for u in units] == list(range(6))
        assert [type(v) for v in units[1]] == [int, str, int, float]
        assert [type(v) for v in edges[-1]] == [int, int, float]
        json.dumps([units, edges])

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(layer=[0, 1, 2, 1]), "layer-major"),
            (dict(src=[0, 0, 2, 1]), "sorted"),
            (dict(dst=[2, 1, 3, 3]), "sorted"),
            (dict(src=[0, 0, 1, 9]), "out of range"),
            (dict(src=[0, 1, 1, 2]), "does not increase"),
            (dict(kind=["input", "input", "relu", "linear"]), "input units"),
            (dict(src=[0, 1, 2], dst=[1, 3, 3], w=[1.0, 1.0, 1.0]), "no incoming edge"),
        ],
    )
    def test_malformed_columns_refused(self, change, message):
        cols = two_hinges(0.0) | {"w": [1.0, 1.0, 1.0, 1.0]} | change
        with pytest.raises(InternalCheckError, match=message):
            ReluNetwork(**cols, output_ids=[3])

    def test_negative_layer_refused(self):
        with pytest.raises(InternalCheckError, match="negative layer"):
            ReluNetwork(kind=["relu"], layer=[-1], bias=[0.5], src=[], dst=[], w=[],
                        output_ids=[0])


def small_floats():
    return st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                     st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def layered_columns(draw):
    """Columns of a small layered network. Each layer draws how its
    units read lower units (constant-source runs, a consecutive slice,
    the same in shuffled order, or scattered sources, from any lower
    layer, so skip edges occur), one or several edges per unit, all-1
    or general weights, and all-relu, all-linear or mixed kinds."""
    n_inputs = draw(st.integers(1, 3))
    kind, layer, src, dst, w = ["input"] * n_inputs, [0] * n_inputs, [], [], []
    for lay in range(1, draw(st.integers(1, 4)) + 1):
        first = len(layer)
        size = draw(st.integers(1, 6))
        fan_in = [1] * size if draw(st.booleans()) else draw(
            st.lists(st.integers(1, 3), min_size=size, max_size=size))
        pattern = draw(st.sampled_from(["runs", "slice", "shuffled slice", "scattered"]))
        total = sum(fan_in)
        if pattern.endswith("slice") and total <= first:
            start = draw(st.integers(0, first - total))
            sources = list(range(start, start + total))
            if pattern == "shuffled slice":
                sources = draw(st.permutations(sources))
        elif pattern == "runs":
            cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=2))) if total > 1 else []
            runs = draw(st.lists(st.integers(0, first - 1), min_size=len(cuts) + 1,
                                 max_size=len(cuts) + 1))
            sources = np.repeat(runs, np.diff([0, *cuts, total])).tolist()
        else:
            sources = draw(st.lists(st.integers(0, first - 1), min_size=total, max_size=total))
        for unit, edges in enumerate(np.split(np.asarray(sources), np.cumsum(fan_in)[:-1])):
            src += sorted(edges.tolist())
            dst += [first + unit] * len(edges)
        mode = draw(st.sampled_from(["relu", "linear", "mixed"]))
        kinds = st.sampled_from(["relu", "linear"]) if mode == "mixed" else st.just(mode)
        kind += draw(st.lists(kinds, min_size=size, max_size=size))
        layer += [lay] * size
        w += [1.0] * total if draw(st.booleans()) else draw(
            st.lists(small_floats(), min_size=total, max_size=total))
    outputs = draw(st.lists(st.integers(0, len(layer) - 1), min_size=1, max_size=3))
    return dict(kind=kind, layer=layer, src=src, dst=dst, w=w, output_ids=outputs,
                bias=draw(st.lists(small_floats(), min_size=len(layer), max_size=len(layer))))


@st.composite
def hinge_pairs(draw):
    """Columns of a hinge layer (one weight-1 edge per relu unit, read
    as runs of one input) and the weighted sums that read it whole, with
    one or several units per sum and all-1 or general weights, and the
    twin that breaks it: "plain" keeps the hinges evaluated inside the
    sums; "read later" adds a unit that reads a hinge again, "output"
    lists a hinge as an output, "mixed" makes one hinge linear."""
    variant = draw(st.sampled_from(["plain", "read later", "output", "mixed"]))
    n_inputs = draw(st.integers(1, 3))
    # the first run has two hinges, so the sources are never one slice
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    lengths[0] += 1
    runs = draw(st.lists(st.integers(0, n_inputs - 1), min_size=len(lengths),
                         max_size=len(lengths)))
    hinges = sum(lengths)
    cuts = sorted(draw(st.sets(st.integers(1, hinges - 1), max_size=hinges - 1)))
    fan_in = np.diff([0, *cuts, hinges])
    sums = len(fan_in)
    kind = ["input"] * n_inputs + ["relu"] * hinges
    kind += [draw(st.sampled_from(["relu", "linear"]))] * sums
    if variant == "mixed":
        kind[n_inputs + draw(st.integers(0, hinges - 1))] = "linear"
    layer = [0] * n_inputs + [1] * hinges + [2] * sums
    src = np.repeat(runs, lengths).tolist() + list(range(n_inputs, n_inputs + hinges))
    dst = list(range(n_inputs, n_inputs + hinges))
    dst += np.repeat(np.arange(sums) + n_inputs + hinges, fan_in).tolist()
    w = [1.0] * hinges + ([1.0] * hinges if draw(st.booleans()) else draw(
        st.lists(small_floats(), min_size=hinges, max_size=hinges)))
    outputs = list(range(n_inputs + hinges, len(layer)))
    if variant == "read later":
        # a layer-3 unit reads one hinge and the last sum
        again = n_inputs + draw(st.integers(0, hinges - 1))
        src += [again, len(layer) - 1]
        dst += [len(layer)] * 2
        w += [1.0, 1.0]
        outputs.append(len(layer))
        kind.append("linear")
        layer.append(3)
    if variant == "output":
        outputs.append(n_inputs + draw(st.integers(0, hinges - 1)))
    bias = draw(st.lists(small_floats(), min_size=len(layer), max_size=len(layer)))
    return variant, dict(kind=kind, layer=layer, bias=bias, src=src, dst=dst, w=w,
                         output_ids=outputs)


def fused_steps(net) -> list:
    """The chunks of each plan step that evaluates a hinge layer inside
    the sums that read it."""
    return [plan[1] for plan in net._plan if isinstance(plan[1], tuple)]


class TestForwardReference:
    """``eval_batch`` against the gather-based reference, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(layered_columns(), st.integers(1, 7), st.data())
    def test_matches_take_forward(self, cols, block, data):
        n_inputs = cols["layer"].count(0)
        batches = [np.asarray(data.draw(st.lists(
            st.lists(small_floats(), min_size=n_inputs, max_size=n_inputs),
            min_size=size, max_size=size))) for size in (2 * block + 1, block + 1)]
        net = ReluNetwork(**cols)
        with pytest.MonkeyPatch.context() as mp:
            # blocks of `block` points, the last one short
            mp.setattr(relunet, "FORWARD_BLOCK_ELEMENTS", block * max(len(net.w), len(net.layer)))
            for X in batches:
                assert net.eval_batch(X).tobytes() == take_forward(net, X, block).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(hinge_pairs(), st.sampled_from([1, 1 << 40]), st.integers(1, 5), st.data())
    def test_hinges_inside_sums_match_take_forward(self, pair, chunk, block, data):
        variant, cols = pair
        with pytest.MonkeyPatch.context() as mp:
            # chunks of one sum unit each, or the whole layer in one
            mp.setattr(relunet, "FUSED_CHUNK_ELEMENTS", chunk)
            net = ReluNetwork(**cols)
        sums = cols["layer"].count(2)
        if variant == "plain":
            assert [len(chunks) for chunks in fused_steps(net)] == [sums if chunk == 1 else 1]
            assert [type(plan[1]) for plan in net._plan] == [tuple]
            # the hinges have no value column
            assert len(net._column_bias) == cols["layer"].count(0) + sums
        else:
            assert fused_steps(net) == []
        n_inputs = cols["layer"].count(0)
        X = np.asarray(data.draw(st.lists(
            st.lists(small_floats(), min_size=n_inputs, max_size=n_inputs),
            min_size=2 * block + 1, max_size=2 * block + 1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relunet, "FORWARD_BLOCK_ELEMENTS", block * max(len(net.w), len(net.layer)))
            assert net.eval_batch(X).tobytes() == take_forward(net, X, block).tobytes()

    def test_program_networks_read_runs(self, small_assembly):
        _, asm = small_assembly
        net = asm.network
        steps = [(int(net.layer[plan[0].start]), type(plan[1])) for plan in net._plan]
        assert steps == [(2, tuple), (3, slice), (5, tuple), (6, slice)]
        # value columns only for the inputs and the layers a step writes
        assert len(net._column_bias) == np.count_nonzero(~np.isin(net.layer, [1, 4]))
        # no step's terms are wider than its widest chunk or unfused layer
        widths = np.bincount(net.layer[net.dst])
        assert net._widest == max(len(chunk[2]) for chunks in fused_steps(net) for chunk in chunks)
        assert net._widest < widths.max() and net._widest >= max(widths[3], widths[6])
        uni = univariate_network(build_univariate(lambda x: x * x, 1.0, 9))
        assert [type(plan[1]) for plan in uni._plan] == [tuple]

    def test_chunks_fit_the_bound_at_one_point_per_block(self, small_assembly):
        # one point per block, as for nets over FORWARD_BLOCK_ELEMENTS edges:
        # a chunk takes the whole sums that fit 200 terms, or one wider sum
        _, asm = small_assembly
        cols = {name: getattr(asm.network, name) for name in
                ("kind", "layer", "bias", "src", "dst", "w", "output_ids")}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relunet, "FORWARD_BLOCK_ELEMENTS", 1)
            mp.setattr(relunet, "FUSED_CHUNK_ELEMENTS", 200)
            net = ReluNetwork(**cols)
            for chunks in fused_steps(net):
                widths = [len(chunk[2]) for chunk in chunks]
                units = [chunk[0].stop - chunk[0].start for chunk in chunks]
                assert all(w <= 200 or u == 1 for w, u in zip(widths, units))
            assert [[len(chunk[4]) for chunk in chunks] for chunks in fused_steps(net)] == [
                [3, 3, 3, 1], [1] * 5]
            X = np.random.default_rng(2).random((3, 2))
            assert net.eval_batch(X).tobytes() == take_forward(net, X, 1).tobytes()


class TestBuildUnivariate:
    def test_linear_target_is_exact(self):
        net = build_univariate(lambda x: x, 1.0, 1)
        assert net.eps_measured == 0.0
        assert net.eval(0.37) == pytest.approx(0.37, abs=1e-15)

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.floats(-0.5, 2.5), st.just(np.nan), st.just(1.25)),
                    min_size=1, max_size=60),
           st.sampled_from([(-1,), (2, -1)]))
    def test_eval_is_interp_pointwise(self, points, shape):
        # unsorted points, repeats, NaNs, points outside [0, M] and on
        # knots, flat and as a 2-D array: np.interp's bits at each point
        uni = build_univariate(lambda x: np.sin(3 * x) + 0.2 * x, 2.0, 8)
        x = np.asarray(points * (2 if len(shape) == 2 else 1)).reshape(shape)
        want = np.interp(x.ravel(), uni.knots, uni.values).reshape(x.shape)
        assert uni.eval(x).tobytes() == want.tobytes()
        assert uni.eval(x).shape == x.shape

    def test_network_matches_interp(self):
        g = lambda x: np.sin(3 * x) + 0.2 * x
        uni = build_univariate(g, 2.0, 17)
        net = univariate_network(uni)
        rng = random.Random(3)
        for _ in range(200):
            x = rng.uniform(0, 2)
            assert one_row(net, [x])[0] == pytest.approx(
                float(uni.eval(x)), abs=1e-12
            )

    def test_exact_at_knots_and_midpoints(self):
        g = lambda x: np.cos(x)
        uni = build_univariate(g, 1.0, 9)
        net = univariate_network(uni)
        for t, v in zip(uni.knots, uni.values):
            assert one_row(net, [t])[0] == pytest.approx(float(v), abs=1e-12)
        mids = 0.5 * (uni.knots[:-1] + uni.knots[1:])
        expected = 0.5 * (uni.values[:-1] + uni.values[1:])
        for t, v in zip(mids, expected):
            assert one_row(net, [t])[0] == pytest.approx(float(v), abs=1e-12)

    def test_psi_error_within_holder_bound(self):
        p = make_params(2)
        ev = DigitPsi(p)
        g = np.vectorize(lambda x: ev.psi(Fraction(repr(float(x))), 9).value, otypes=[float])
        N = 36
        uni = build_univariate(g, 2.0 - 1e-9, N)
        assert uni.eps_measured <= p.nu * (2.0 / N) ** p.alpha

    def test_phi_error_within_lipschitz_bound(self):
        state = iterate(init_state(builtin_target("product", 2)))
        nu = lipschitz_report(state)["nu_r"]
        M = float(state.params.phi_domain_sup)
        eps_phi = 1.0
        N = math.ceil(nu * M / (2 * eps_phi))
        g = lambda y: phi_batch(state, 0, np.asarray(y, dtype=float))
        uni = build_univariate(g, M - 1e-12, N)
        assert uni.eps_measured <= eps_phi

    def test_monotone_error_in_n(self):
        p = make_params(2)
        ev = DigitPsi(p)
        g = np.vectorize(lambda x: ev.psi(Fraction(repr(float(x))), 9).value, otypes=[float])
        errs = [build_univariate(g, 2.0 - 1e-9, N).eps_measured for N in (8, 16, 32, 64)]
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))

    def test_outer_error_bounded_at_coarse_n(self):
        # An outer approximant is a comb of teeth a few 1e-5 wide, so a
        # few dozen uniform knots sample it at resonance and the error
        # is not monotone in N; it stays bounded by the tallest tooth,
        # and collapses once the knots are the exact breakpoints.
        import numpy as np

        state = iterate(init_state(builtin_target("product", 2)))
        M = float(state.params.phi_domain_sup)
        g = lambda y: phi_batch(state, 0, np.asarray(y, dtype=float))
        tallest = max(float(np.max(np.abs(coeff))) for coeff in state.coeff)
        for N in (8, 16, 32, 64):
            uni = build_univariate(g, M, N)
            assert uni.eps_measured <= tallest + 1e-12
        from kst.decompose import outer_interpolant

        corners = outer_interpolant(state, 0, M, 10**6)[0]
        exact = build_univariate(g, M, 0, knots=corners, audit_factor=4)
        assert exact.eps_measured <= 1e-9

    def test_size_formula(self):
        for N in (2, 5, 20):
            uni = build_univariate(lambda x: x * x, 1.0, N)
            assert N + 2 <= uni.W <= 3 * N + 4
            assert uni.W == univariate_network(uni).W

    @pytest.mark.parametrize("knots", [None, np.array([0.0, 0.1, 0.35, 0.36, 1.3, 2.0])])
    def test_each_audit_point_once(self, knots, monkeypatch):
        # the knots first, then one call per block of cells; together
        # they are the whole audit grid, each point once
        def g(x):
            calls.append(x.copy())
            return np.sin(3 * x) + x * x

        for block in (1, 2, relunet.AUDIT_BLOCK_CELLS):
            monkeypatch.setattr(relunet, "AUDIT_BLOCK_CELLS", block)
            calls = []
            uni = build_univariate(g, 2.0, 37, knots=knots)
            cells = len(uni.knots) - 1
            assert calls[0].tobytes() == uni.knots.tobytes()
            assert len(calls) == 1 + -(-cells // block)
            grid, _ = audit_grid(uni.knots, 10)
            assert np.sort(np.concatenate(calls)).tobytes() == grid.tobytes()
            assert uni.values.tobytes() == g(uni.knots).tobytes()
            assert uni.values.base is None

    def test_knot_values_own_their_buffer(self):
        # g answers with a view; the kept values must not pin its base
        uni = build_univariate(lambda x: np.stack([x * x, x])[0], 1.0, 8)
        assert uni.values.base is None
        assert uni.values.tobytes() == (uni.knots * uni.knots).tobytes()

    @pytest.mark.parametrize("cells", [relunet.AUDIT_BLOCK_CELLS + d for d in (-1, 0, 1)])
    def test_matches_whole_grid_at_block_size(self, cells):
        g = lambda x: np.sin(40 * x) + x * x
        got = build_univariate(g, 1.5, cells)
        want = whole_grid_univariate(g, 1.5, cells)
        assert got.knots.tobytes() == want.knots.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert np.float64(got.eps_measured).tobytes() == np.float64(want.eps_measured).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_matches_whole_grid(self, data):
        block = data.draw(st.integers(1, 6), label="block")
        cells = max(1, block + data.draw(st.sampled_from([-1, 0, 1, block + 1]), label="over"))
        kind = data.draw(st.sampled_from(["uniform", "custom", "values"]), label="kind")
        factor = data.draw(st.sampled_from([2, 4, 10]), label="audit_factor")
        g = lambda x: np.sin(7 * x) + x * x
        knots = values = None
        M = data.draw(st.floats(0.5, 3.0), label="M")
        if kind != "uniform":
            # steps of ordinary gaps and of one ulp, where the interior
            # audit points round onto a knot
            knots = [0.0]
            for _ in range(cells):
                if len(knots) > 1 and data.draw(st.booleans(), label="ulp"):
                    knots.append(float(np.nextafter(knots[-1], np.inf)))
                else:
                    knots.append(knots[-1] + data.draw(st.floats(1e-9, 0.5), label="gap"))
            knots = np.asarray(knots)
            M = knots[-1]
        if kind == "values":
            values = np.cos(3 * knots)
        got = build_univariate(g, M, cells, knots=knots, audit_factor=factor, values=values)
        want = whole_grid_univariate(g, M, cells, knots=knots, audit_factor=factor, values=values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relunet, "AUDIT_BLOCK_CELLS", block)
            blocked = build_univariate(g, M, cells, knots=knots, audit_factor=factor, values=values)
        for net in (got, blocked):
            assert net.knots.tobytes() == want.knots.tobytes()
            assert net.values.tobytes() == want.values.tobytes()
            assert np.float64(net.eps_measured).tobytes() == np.float64(want.eps_measured).tobytes()

    def test_ulp_cells_round_onto_their_right_knot(self):
        # cells one ulp wide, as between the corner knots of pipeline-n2's
        # outer nets: interior audit points land on the right knot
        base = 1e-3
        up = lambda x: np.nextafter(x, 1.0)
        knots = np.array([0.0, base, up(base), up(up(base)), 1.0])
        grid, _ = audit_grid(knots, 4)
        assert np.any(grid[1:] == grid[:-1])
        g = lambda x: np.where(x > base, 1.0, 0.0) + x
        got = build_univariate(g, 1.0, 0, knots=knots, audit_factor=4)
        want = whole_grid_univariate(g, 1.0, 0, knots=knots, audit_factor=4)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.float64(got.eps_measured).tobytes() == np.float64(want.eps_measured).tobytes()

    @pytest.mark.parametrize("block", [1, relunet.AUDIT_BLOCK_CELLS])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reference_between_knots_refused(self, block, bad, monkeypatch):
        # only audit points in (0.301, 0.309) are hit, no knot; unchecked,
        # the build reports eps_measured = nan, which compares as clean
        monkeypatch.setattr(relunet, "AUDIT_BLOCK_CELLS", block)
        g = lambda x: np.where((x > 0.301) & (x < 0.309), bad, x * x)
        assert np.all(np.isfinite(g(np.linspace(0.0, 1.0, 11))))
        with pytest.raises(DomainError, match="not finite on the audit grid"):
            build_univariate(g, 1.0, 10)
        values = np.linspace(0.0, 1.0, 11) ** 2
        with pytest.raises(DomainError, match="not finite on the audit grid"):
            build_univariate(g, 1.0, 0, knots=np.linspace(0.0, 1.0, 11), values=values)

    def test_non_finite_knot_values_refused(self):
        with pytest.raises(DomainError, match="not finite"):
            build_univariate(lambda x: np.where(x == 0.5, np.inf, x), 1.0, 2)
        knots = np.array([0.0, 0.5, 1.0])
        with pytest.raises(DomainError, match="knot values"):
            build_univariate(lambda x: x, 1.0, 0, knots=knots, values=np.array([0.0, np.nan, 1.0]))

    def test_audit_factor_below_two_refused(self):
        # a factor of 1 or less would audit the knots alone and read 0.0
        g = lambda x: np.sin(50 * x)
        for factor in (0, 1):
            with pytest.raises(DomainError):
                build_univariate(g, 1.0, 2000, audit_factor=factor)
        assert build_univariate(g, 1.0, 2000, audit_factor=2).eps_measured > 0

    def test_memory_linear_in_knots(self):
        # numpy reports its buffers to tracemalloc, so the traced peak is
        # deterministic; the whole audit grid (1M points here, about 8 MB
        # per array) would not fit under this bound
        n, factor = 100_000, 10
        block_points = relunet.AUDIT_BLOCK_CELLS * (factor - 1)
        bound = 4 * 8 * (n + 1) + 6 * 8 * block_points
        tracemalloc.start()
        try:
            uni = build_univariate(lambda x: x * x, 1.0, n, audit_factor=factor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert uni.n_segments == n
        assert peak < bound, (peak, bound)

    def test_custom_knots(self):
        knots = np.array([0.0, 0.25, 0.3, 1.0])
        uni = build_univariate(lambda x: x**2, 1.0, 0, knots=knots)
        assert uni.n_segments == 3
        with pytest.raises(DomainError):
            build_univariate(lambda x: x, 1.0, 0, knots=np.array([0.1, 0.9]))


@pytest.fixture(scope="module")
def small_assembly():
    state = iterate(init_state(builtin_target("product", 2)))
    p = state.params
    lam = lambda_coeffs(p)
    ev = DigitPsi(p)
    psi = build_univariate(
        np.vectorize(lambda x: ev.psi(Fraction(repr(float(x))), 7).value, otypes=[float]),
        1.0 + p.m * float(p.a),
        64,
    )
    M_phi = float(p.phi_domain_sup)
    phis = [
        build_univariate(
            lambda y, j=j: phi_batch(state, j, np.asarray(y, dtype=float)),
            M_phi - 1e-12,
            128,
        )
        for j in range(p.m + 1)
    ]
    return state, assemble_kst(psi, phis, p, lam)


class TestAssembly:
    def test_branch_counts(self, small_assembly):
        state, asm = small_assembly
        assert len(asm.phi_nets) == 5
        net = asm.network
        psi_hinges = sum(
            1 for u in net.units if u.kind == "relu" and u.layer == 1
        )
        assert psi_hinges == 10 * asm.psi_net.n_segments

    def test_fig3_formula(self):
        # frozen arithmetic of the size formula at n=2
        n, W_psi, W_phi = 2, 10, 7
        assert (2 * n**2 + n) * W_psi + (2 * n + 1) * W_phi == 135

    def test_accounting_matches_graph(self, small_assembly):
        _, asm = small_assembly
        net = asm.network
        assert net.W == asm.W
        assert net.L == asm.L == 6
        literal_minus_fig3 = asm.W - asm.fig3_W
        assert literal_minus_fig3 == asm.aggregation_weights

    def test_assembled_equals_composition(self, small_assembly):
        state, asm = small_assembly
        p = state.params
        rng = random.Random(11)
        pts = np.asarray([[rng.random(), rng.random()] for _ in range(1000)])
        fast = asm.eval_batch(pts)
        a_f = float(p.a)
        for row in range(0, 1000, 97):
            x = pts[row]
            by_formula = sum(
                float(
                    asm.phi_nets[j].eval(
                        sum(
                            asm.lam_floats[i] * float(asm.psi_net.eval(x[i] + j * a_f))
                            for i in range(2)
                        )
                    )
                )
                for j in range(5)
            )
            dag = one_row(asm.network, x)[0]
            assert abs(dag - by_formula) <= 1e-10
            assert abs(fast[row] - by_formula) <= 1e-10

    def test_mesh_columns_match_eval_batch(self, small_assembly):
        # the interpolant form on a product mesh, through the images'
        # broadcast, is eval_batch at the mesh's points, bit for bit
        _, asm = small_assembly
        axes = [np.linspace(0.0, 1.0, 41), np.random.default_rng(13).random(29)]
        on_mesh = asm.eval_columns(np.ix_(*axes))
        assert on_mesh.shape == (41, 29)
        assert on_mesh.ravel().tobytes() == asm.eval_batch(mesh_points(axes)).tobytes()

    def test_blocked_forward_matches_unit_loop(self, small_assembly, monkeypatch):
        _, asm = small_assembly
        net = asm.network
        pts = np.random.default_rng(5).random((40, 2))
        want = dag_forward(net, pts)
        # blocks of 7 points, the last one short
        monkeypatch.setattr(relunet, "FORWARD_BLOCK_ELEMENTS", 7 * len(net.w))
        got = net.eval_batch(pts)
        assert got.shape == (40, 1)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_each_stored_layer_matches_the_interpolants(self, small_assembly):
        # networks on the same columns whose outputs are the units of
        # layers 2, 3, 5 and 6, against the interpolant form of each
        _, asm = small_assembly
        net, p = asm.network, asm.params
        X = np.random.default_rng(7).random((300, 2))
        shifted = X[:, None, :] + np.arange(p.m + 1)[None, :, None] * float(p.a)
        psi = asm.psi_net.eval(shifted)  # (points, families, coordinates)
        sums = psi @ asm.lam_floats
        phis = np.stack([phi.eval(sums[:, j]) for j, phi in enumerate(asm.phi_nets)], axis=1)
        want = {2: psi.reshape(len(X), -1), 3: sums, 5: phis, 6: asm.eval_batch(X)[:, None]}
        for lay, values in want.items():
            ids = np.flatnonzero(net.layer == lay)
            part = ReluNetwork(net.kind, net.layer, net.bias, net.src, net.dst, net.w,
                               output_ids=ids)
            assert len(fused_steps(part)) == 2
            np.testing.assert_allclose(part.eval_batch(X), values, rtol=0, atol=1e-10)

    def test_domain_coverage_checks(self, small_assembly):
        state, _ = small_assembly
        p = state.params
        lam = lambda_coeffs(p)
        short_psi = build_univariate(lambda x: x, 0.5, 4)
        M_phi = float(p.phi_domain_sup)
        phis = [build_univariate(lambda y: 0.0 * y, M_phi, 4) for _ in range(5)]
        with pytest.raises(DomainError):
            assemble_kst(short_psi, phis, p, lam)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]


def ids():
    """Ints of 1 to 7 digits, exact powers of ten and their neighbours
    drawn often."""
    edges = [sign * (10**k + d) for k in range(7) for d in (-1, 0, 1) for sign in (1, -1)]
    return st.one_of(st.sampled_from(edges), st.integers(-9_999_999, 9_999_999))


def floats():
    return st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def networks(draw):
    """Small valid networks: random layer sizes, kinds mixed within a
    layer, 1-3 incoming edges per unit from lower layers, and biases
    and weights drawn from ``floats``."""
    sizes = [draw(st.integers(1, 3))] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    layer = np.repeat(np.arange(len(sizes)), sizes)
    kinds = st.sampled_from(["relu", "linear"])
    kind = ["input"] * sizes[0] + [draw(kinds) for _ in range(len(layer) - sizes[0])]
    src, dst = [], []
    for unit in range(sizes[0], len(layer)):
        lower = st.sampled_from(np.flatnonzero(layer < layer[unit]).tolist())
        for s in sorted(draw(st.sets(lower, min_size=1, max_size=3))):
            src.append(s)
            dst.append(unit)
    return ReluNetwork(
        kind, layer,
        bias=draw(st.lists(floats(), min_size=len(layer), max_size=len(layer))),
        src=src, dst=dst,
        w=draw(st.lists(floats(), min_size=len(src), max_size=len(src))),
        output_ids=[len(layer) - 1],
    )


def json_bytes(doc) -> bytes:
    return b"".join(json_parts(doc))


class TestJsonParts:
    @settings(derandomize=True, deadline=None)
    @given(st.lists(ids(), max_size=40), st.lists(floats(), max_size=40),
           st.lists(st.sampled_from(relunet.KINDS), max_size=40))
    def test_columns_match_reference(self, ints, values, kinds):
        doc = {
            "edges": {"from": np.array(ints, dtype=np.int64), "w": np.array(values, dtype=float)},
            "units": {"kind": np.array(kinds, dtype=str)},
            "meta": {"W": len(ints), "outputs": ints[:3]},
        }
        assert json_bytes(doc) == columns_json_text(doc).encode()

    @settings(derandomize=True, deadline=None)
    @given(networks())
    def test_random_networks_match_reference(self, net):
        assert json_bytes(net.to_json_dict()) + b"\n" == net_json_text(net).encode()

    def test_unknown_column_dtype_refused(self):
        with pytest.raises(InternalCheckError, match="dtype bool"):
            json_bytes({"flags": np.array([True, False])})
