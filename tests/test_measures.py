import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uot import (CostSpec, DiscreteMeasure, DomainError, InvalidMeasureError,
                 cost_matrix, load_measure, new_measure, total_mass)
from uot.measures import _row_blocks


def test_zero_weight_atoms_are_stripped():
    m = new_measure([1.0, 0.0, 2.0], [[0.0], [1.0], [2.0]])
    assert len(m) == 2
    assert m.weights.tolist() == [1.0, 2.0]
    assert m.points.ravel().tolist() == [0.0, 2.0]


def test_null_measure():
    m = new_measure([], [])
    assert m.is_null
    assert total_mass(m) == 0.0


def test_negative_weight_rejected():
    with pytest.raises(InvalidMeasureError):
        new_measure([-1.0], [[0.0]])


def test_length_mismatch_rejected():
    with pytest.raises(InvalidMeasureError):
        new_measure([1.0, 2.0], [[0.0]])


def test_total_mass():
    assert total_mass(new_measure([0.5, 0.5], [[0.0], [1.0]])) == 1.0
    assert total_mass(new_measure([2.0, 3.0, 4.0], [[0.0], [1.0], [2.0]])) == 9.0


def test_mass_preserved_under_stripping():
    w = [0.25, 0.0, 0.75, 0.0]
    m = new_measure(w, [[0.0], [1.0], [2.0], [3.0]])
    assert m.total_mass == sum(w)


def test_cost_matrix_values():
    sq = CostSpec.sq_euclidean()
    assert cost_matrix([[0.0]], [[2.0]], sq)[0, 0] == 4.0
    assert cost_matrix([[1.3]], [[1.3]], sq)[0, 0] == 0.0
    eu = CostSpec.euclidean_pow(1.0)
    assert cost_matrix([[0.0, 0.0]], [[3.0, 4.0]], eu)[0, 0] == pytest.approx(5.0)


def test_cost_matrix_diagonal_exactly_zero():
    rng = np.random.default_rng(0)
    pts = rng.random((17, 3))
    c = cost_matrix(pts, pts, CostSpec.sq_euclidean())
    assert np.all(np.diag(c) == 0.0)


def test_cost_matrix_symmetry():
    rng = np.random.default_rng(1)
    xs, ys = rng.random((8, 2)), rng.random((11, 2))
    for spec in (CostSpec.sq_euclidean(0.5), CostSpec.euclidean_pow(1.5)):
        assert np.allclose(cost_matrix(xs, ys, spec),
                           cost_matrix(ys, xs, spec).T, rtol=0, atol=0)


def tensor_sq_distances(xs, ys):
    """Squared distances through the N x M x d difference tensor."""
    diff = xs[:, None, :] - ys[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def zero_start_sq_distances(xs, ys):
    """Squared distances summed one coordinate at a time from zero."""
    sq = np.zeros((len(xs), len(ys)))
    for k in range(xs.shape[1]):
        sq += np.subtract.outer(xs[:, k], ys[:, k]) ** 2
    return sq


def powered(spec, sq):
    """The cost from squared distances."""
    if spec.power == 2.0:
        return spec.scale * sq
    return spec.scale * np.sqrt(sq) ** spec.power


def tensor_grad_parts(spec, xs, ys):
    """``grad_x C(x_i, y_j) = coef_ij * diff_ijk`` through the N x M x d
    difference tensor: ``(coef, diff)``."""
    diff = xs[:, None, :] - ys[None, :, :]
    if spec.power == 2.0:
        return np.full(diff.shape[:2], 2.0 * spec.scale), diff
    sq = tensor_sq_distances(xs, ys)
    return spec.scale * spec.power * np.sqrt(sq) ** (spec.power - 2.0), diff


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cost_matches_the_tensor_formula(d):
    rng = np.random.default_rng(30 + d)
    xs, ys = rng.standard_normal((64, d)), rng.standard_normal((45, d))
    weights = rng.random((64, 45))
    sq = tensor_sq_distances(xs, ys)
    zero_start = zero_start_sq_distances(xs, ys)
    for spec in (CostSpec.sq_euclidean(0.5), CostSpec.euclidean_pow(1.0),
                 CostSpec.euclidean_pow(1.5, 2.0),
                 CostSpec.euclidean_pow(3.0, 0.5)):
        ref = powered(spec, sq)
        got = spec.pairwise(xs, ys)
        if d <= 2:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref) / ref) <= 1e-15
        # for every d, bit-identical to the sum started from zero, and the
        # same when written into a buffer
        assert np.array_equal(got, powered(spec, zero_start))
        out = np.full(got.shape, np.nan)
        assert spec.pairwise(xs, ys, out=out) is out
        assert np.array_equal(out, got)
        # the contraction, within 1e-13 of the reference in max norm
        coef, diff = tensor_grad_parts(spec, xs, ys)
        ref_grad = np.einsum("ij,ijk->ik", weights * coef, diff)
        got_grad = spec.grad_x(xs, ys, weights)
        assert np.max(np.abs(got_grad - ref_grad)) <= 1e-13 * np.max(
            np.abs(ref_grad))
        assert np.all(np.diag(spec.pairwise(xs, xs)) == 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,m", [(130, 400), (3, 70_000)])
def test_blocked_cost_is_bit_identical_to_one_pass(n, m, d):
    # several row blocks with a ragged last one, and rows longer than a
    # block, which go one row a block
    rows, blocks = _row_blocks(n, m)
    assert len(blocks) > 2 and (rows == 1 if m > 2 ** 16 else n % rows)
    rng = np.random.default_rng(n + d)
    xs, ys = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    sq = zero_start_sq_distances(xs, ys)
    for spec in (CostSpec.sq_euclidean(), CostSpec.sq_euclidean(0.5),
                 CostSpec.euclidean_pow(1.5, 2.0)):
        ref = powered(spec, sq)
        assert np.array_equal(spec.pairwise(xs, ys), ref)
        out = np.full(ref.shape, np.nan)
        assert np.array_equal(spec.pairwise(xs, ys, out=out), ref)


def test_cost_out_of_the_wrong_shape_raises():
    xs, ys = np.zeros((3, 2)), np.ones((4, 2))
    read_only = np.empty((3, 4))
    read_only.setflags(write=False)
    spec = CostSpec()
    for bad in (np.empty((4, 3)), np.empty((3, 4), dtype=np.float32),
                read_only, [[0.0] * 4] * 3):
        with pytest.raises(DomainError, match="output buffer"):
            spec.pairwise(xs, ys, out=bad)
    for spec in (CostSpec(), CostSpec.euclidean_pow(3.0)):
        for bad in (np.ones((4, 3)), np.ones((3, 4, 2)), np.ones(12),
                    np.ones((3, 1)), 1.0):
            with pytest.raises(DomainError, match="weights"):
                spec.grad_x(xs, ys, bad)


def test_cost_out_overlapping_a_point_array_raises():
    # three points in R^3: either point array has the cost's shape, and
    # writing into it would overwrite coordinates still to be read
    xs, ys = np.random.default_rng(3).random((2, 3, 3))
    for out in (xs, ys, ys.T):
        with pytest.raises(DomainError, match="overlap"):
            CostSpec().pairwise(xs, ys, out=out)


def test_cost_null_supports():
    pts = np.ones((5, 2))
    for spec in (CostSpec.sq_euclidean(), CostSpec.euclidean_pow(1.5)):
        assert spec.pairwise(np.zeros((0, 2)), pts).shape == (0, 5)
        assert spec.pairwise(pts, np.zeros((0, 2))).shape == (5, 0)
        assert spec.pairwise(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 0)
        assert spec.pairwise([], np.ones((4, 3))).shape == (0, 4)
        assert spec.grad_x(np.zeros((0, 2)), pts,
                           np.zeros((0, 5))).shape == (0, 2)
        grad = spec.grad_x(pts, np.zeros((0, 2)), np.zeros((5, 0)))
        assert grad.shape == (5, 2) and np.all(grad == 0.0)


def test_cost_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    xs, ys = rng.random((4, 2)), rng.random((5, 2))
    weights = rng.random((4, 5))
    h = 1e-6
    for spec in (CostSpec.sq_euclidean(), CostSpec.euclidean_pow(1.5, scale=2.0)):
        grad = spec.grad_x(xs, ys, weights)
        for k in range(2):
            xp, xm = xs.copy(), xs.copy()
            xp[:, k] += h
            xm[:, k] -= h
            # central difference of sum_j w_ij C(x_i, y_j)
            fd = np.sum(weights * (spec.pairwise(xp, ys)
                                   - spec.pairwise(xm, ys)), axis=1) / (2 * h)
            assert np.allclose(grad[:, k], fd, atol=1e-6)


def test_cost_grad_rejects_coincident_points_for_distance():
    pts = np.array([[0.0, 0.0]])
    with pytest.raises(DomainError):
        CostSpec.euclidean_pow(1.0).grad_x(pts, pts, np.ones((1, 1)))


@st.composite
def contractions(draw):
    """A cost and ``(xs, ys, weights)``: d in {1, 2, 3}, supports of 0 to 6
    atoms whose coordinates are often grid points, so pairs coincide, and
    nonnegative weights with zero rows and columns.  Nonzero coordinates
    and weights stay above 1e-3, so no product of them is subnormal."""
    d = draw(st.sampled_from([1, 2, 3]))
    spec = CostSpec.euclidean_pow(draw(st.sampled_from([1.5, 2.0, 3.0])),
                                  draw(st.sampled_from([0.5, 1.0])))
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    coords = st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0),
                       st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0))
    xs = draw(hnp.arrays(float, (n, d), elements=coords))
    ys = draw(hnp.arrays(float, (m, d), elements=coords))
    weights = draw(hnp.arrays(float, (n, m), elements=st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0))))
    weights[draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)), :] = 0.0
    weights[:, draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=m))] = 0.0
    return spec, xs, ys, weights


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(contractions())
def test_cost_grad_is_the_tensor_contraction(case):
    spec, xs, ys, weights = case
    if spec.power < 2.0 and np.any(tensor_sq_distances(xs, ys) == 0.0):
        with pytest.raises(DomainError, match="coincident"):
            spec.grad_x(xs, ys, weights)
        return
    coef, diff = tensor_grad_parts(spec, xs, ys)
    ref = np.einsum("ij,ijk->ik", weights * coef, diff)
    # within 1e-13 of the size of the terms that W 1 * x_i - W y cancels,
    # sum_j |w_ij coef_ij| (|x_i| + |y_j|): the reference's own size when
    # nothing cancels, and not 0 where the reference is 0 by symmetry
    terms = np.einsum("ij,ijk->ik", np.abs(weights * coef),
                      np.abs(xs)[:, None, :] + np.abs(ys)[None, :, :])
    got = spec.grad_x(xs, ys, weights)
    assert got.shape == xs.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * np.max(
        terms, initial=0.0)


def test_cost_spec_validation():
    with pytest.raises(DomainError):
        CostSpec(power=0.5)
    with pytest.raises(DomainError):
        CostSpec(scale=0.0)


def test_cost_matrix_dimension_mismatch():
    with pytest.raises(DomainError):
        cost_matrix([[0.0, 1.0]], [[0.0, 1.0, 2.0]], CostSpec())


def test_cost_grad_dimension_mismatch():
    # a length-1 coordinate axis used to broadcast against the other's
    for xs, ys in (([[0.0]], [[0.0, 1.0]]), ([[0.0, 1.0]], [[0.0]])):
        with pytest.raises(DomainError):
            CostSpec().grad_x(xs, ys, np.ones((1, 1)))


def test_json_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = DiscreteMeasure(rng.random(9) + 0.1, rng.standard_normal((9, 3)))
    path = tmp_path / "m.json"
    m.save_json(path)
    back = DiscreteMeasure.load_json(path)
    assert np.array_equal(back.weights, m.weights)
    assert np.array_equal(back.points, m.points)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    m = DiscreteMeasure(rng.random(7) + 0.1, rng.standard_normal((7, 2)) / 3.0)
    path = tmp_path / "m.csv"
    m.save_csv(path)
    back = DiscreteMeasure.load_csv(path)
    assert np.array_equal(back.weights, m.weights)
    assert np.array_equal(back.points, m.points)


def test_json_schema(tmp_path):
    m = DiscreteMeasure([1.0], [[0.5, 0.25]])
    path = tmp_path / "m.json"
    m.save_json(path)
    data = json.loads(path.read_text())
    assert data == {"weights": [1.0], "points": [[0.5, 0.25]]}


def test_measures_immutable():
    m = DiscreteMeasure([1.0, 2.0], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        m.weights[0] = 5.0


@pytest.mark.parametrize("name, text, message", [
    ("empty.json", "", "Expecting value"),
    ("keys.json", '{"w": [1]}', "missing key 'weights'"),
    ("cell.csv", "w,x1\n1,abc\n", "could not convert string to float"),
    ("header.csv", "x1\n1\n", "expected header"),
    ("negative.json", '{"weights": [-1], "points": [[0]]}', "nonnegative"),
], ids=["json-decode", "missing-key", "csv-cell", "csv-header", "measure-check"])
def test_load_measure_names_a_malformed_file(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(InvalidMeasureError) as info:
        load_measure(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)
