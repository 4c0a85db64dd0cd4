import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallie import linalg
from hallie.errors import ResourceBound
from hallie.linalg import (FMatrix, PrimeField, coords_in_rowspace, echelon,
                           enumerate_subspaces, enumerate_superspaces,
                           gaussian_binomial, injective_images,
                           intersect_subspaces, is_prime, odometer,
                           preimage_subspace, quotient_projection, row_space,
                           rref, rref_pivots, scalar_orbits, solve_nullspace,
                           subspace_contains, subspaces_between)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def mat(field, rows, ncols=None):
    return FMatrix.from_rows(field, rows, ncols=ncols)


def gaussian_by_counting(d, e, p):
    # independent oracle: count echelon matrices by pivot pattern
    total = 0
    for pivots in itertools.combinations(range(d), e):
        free = sum(1 for i in range(e) for j in range(pivots[i] + 1, d)
                   if j not in pivots)
        total += p ** free
    return total


class TestPrimeField:
    def test_rejects_composite(self):
        for bad in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_inverse_table(self):
        for p in (2, 3, 5, 7):
            f = PrimeField(p)
            for a in range(1, p):
                assert (a * f.inverses[a]) % p == 1


def test_is_prime_below_100():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97]
    assert [n for n in range(-3, 100) if is_prime(n)] == primes


class TestRref:
    def test_zero_matrix(self):
        res = rref(FMatrix.zeros(F2, 3, 3))
        assert res.rank == 0
        assert res.pivots == ()

    def test_identity_f2(self):
        res = rref(FMatrix.identity(F2, 2))
        assert res.rank == 2

    def test_dependent_rows_f5(self):
        res = rref(mat(F5, [[1, 2], [2, 4]]))
        assert res.rank == 1
        assert res.pivots == (0,)

    @given(st.sampled_from([2, 3, 5]),
           st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, p, nr, nc, data):
        field = PrimeField(p)
        rows = [[data.draw(st.integers(0, p - 1)) for _ in range(nc)]
                for _ in range(nr)]
        m = mat(field, rows)
        once = rref(m)
        twice = rref(once.matrix)
        assert once.matrix == twice.matrix
        assert once.rank == twice.rank


class TestEchelon:
    @given(st.sampled_from([2, 3, 5, 7]),
           st.integers(0, 5), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_rref_and_is_reduced(self, p, nr, nc, data):
        field = PrimeField(p)
        original = [[data.draw(st.integers(0, p - 1)) for _ in range(nc)]
                    for _ in range(nr)]
        rows = [row[:] for row in original]
        pivots = echelon(rows, p, field.inverses)
        res = rref(FMatrix(field, nr, nc, tuple(map(tuple, original))))
        assert tuple(map(tuple, rows)) == res.matrix.rows
        assert tuple(pivots) == res.pivots
        assert len(pivots) == res.rank
        # reduced echelon form: leading 1s on increasing pivot columns, each
        # pivot column a unit vector, zero rows below the rank
        assert list(pivots) == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert rows[i][:c] == [0] * c and rows[i][c] == 1
            assert all(rows[j][c] == 0 for j in range(nr) if j != i)
        assert all(not any(row) for row in rows[len(pivots):])
        # same row space: every input row has coordinates in the result
        reduced = FMatrix(field, nr, nc, tuple(map(tuple, rows)))
        for row in original:
            coords = coords_in_rowspace(reduced, pivots, row)
            assert coords is not None
            assert tuple(sum(x * rows[i][j] for i, x in enumerate(coords)) % p
                         for j in range(nc)) == tuple(row)

    def test_coords_outside_span(self):
        basis = mat(F3, [[1, 0, 2]])
        assert coords_in_rowspace(basis, [0], (2, 0, 1)) == (2,)
        assert coords_in_rowspace(basis, [0], (1, 1, 2)) is None

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_coords_match_reconstruction(self, p, d, data):
        """Coordinates exist exactly when they rebuild the vector mod p, on
        vectors inside and outside the span, with entries left unreduced."""
        field = PrimeField(p)
        entries = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
        basis = row_space(mat(field, data.draw(st.lists(entries, max_size=d)), ncols=d))
        pivots = rref_pivots(basis)
        vector = data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=d, max_size=d))
        coords = coords_in_rowspace(basis, pivots, vector)
        reduced = tuple(x % p for x in vector)
        if coords is None:
            assert all(
                tuple(sum(c * row[j] for c, row in zip(cs, basis.rows)) % p
                      for j in range(d)) != reduced
                for cs in itertools.product(range(p), repeat=basis.nrows))
        else:
            assert coords == tuple(reduced[c] for c in pivots)
            assert tuple(sum(c * row[j] for c, row in zip(coords, basis.rows)) % p
                         for j in range(d)) == reduced


class TestReducedEchelonCheck:
    def test_accepts_reduced_bases(self):
        assert rref_pivots(mat(F3, [[1, 2, 0, 1], [0, 0, 1, 2]])) == [0, 2]
        assert rref_pivots(FMatrix.zeros(F3, 0, 3)) == []

    @pytest.mark.parametrize("rows", [
        [[2, 0, 1]],                # a lead that is not 1
        [[0, 1, 0], [1, 0, 0]],     # pivots that do not increase
        [[1, 0, 0], [1, 0, 0]],     # a repeated pivot
        [[1, 1, 0], [0, 1, 0]],     # nonzero in a later row's pivot column
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],  # a zero row
    ])
    def test_rejects_each_unreduced_form(self, rows):
        with pytest.raises(ValueError, match="reduced echelon"):
            rref_pivots(mat(F3, rows))


class TestOdometer:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("h", [0, 1, 2, 3])
    def test_visits_each_combination_once(self, p, h):
        # basis element k is the unit vector e_k of a 1 x h matrix, so the
        # matrix at each step spells out the combination's digits
        mats = [[[0] * h]]
        seen = [tuple(mats[0][0]) for _ in odometer(
            mats, [[(0, 0, k, 1)] for k in range(h)], p)]
        assert len(seen) == p ** h
        assert sorted(seen) == sorted(itertools.product(range(p), repeat=h))

    def test_dependent_basis_gives_combination_sums(self):
        # two matrices, a basis with overlapping and repeated entries
        p = 3
        basis = [[(0, 0, 0, 1), (1, 1, 0, 2)],
                 [(0, 0, 0, 2), (0, 0, 1, 1)],
                 [(1, 0, 1, 1), (1, 1, 0, 1)]]
        mats = [[[0, 0]], [[0, 0], [0, 0]]]
        seen = []
        for _ in odometer(mats, basis, p):
            seen.append(tuple(tuple(map(tuple, m)) for m in mats))
        want = []
        for xs in itertools.product(range(p), repeat=len(basis)):
            acc = [[[0, 0]], [[0, 0], [0, 0]]]
            for x, flat in zip(xs, basis):
                for i, r, c, v in flat:
                    acc[i][r][c] = (acc[i][r][c] + x * v) % p
            want.append(tuple(tuple(map(tuple, m)) for m in acc))
        assert sorted(seen) == sorted(want)


class TestScalarOrbits:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("h", [0, 1, 2, 3])
    def test_one_combination_per_orbit(self, p, h):
        mats = [[[0] * h]]
        seen = {}
        for weight in scalar_orbits(mats, [[(0, 0, k, 1)] for k in range(h)], p):
            combo = tuple(mats[0][0])
            assert combo not in seen
            seen[combo] = weight
        assert sum(seen.values()) == p ** h
        assert seen[(0,) * h] == 1
        for combo in itertools.product(range(p), repeat=h):
            if any(combo):
                # exactly one nonzero multiple of each nonzero combination
                orbit = {tuple((lam * x) % p for x in combo) for lam in range(1, p)}
                assert [seen[c] for c in orbit if c in seen] == [p - 1]

    def test_dependent_basis_weights_match_odometer(self):
        # the support of a combination is scale-invariant, so weighted
        # counts per support equal the full walk's counts
        p = 3
        basis = [[(0, 0, 0, 1), (1, 1, 0, 2)],
                 [(0, 0, 0, 2), (0, 0, 1, 1)],
                 [(1, 0, 1, 1), (1, 1, 0, 1)]]

        def counts_by_support(walker):
            mats = [[[0, 0]], [[0, 0], [0, 0]]]
            counts = {}
            for weight in walker(mats, basis, p):
                key = tuple(bool(x) for m in mats for row in m for x in row)
                counts[key] = counts.get(key, 0) + (1 if weight is None else weight)
            return counts

        assert counts_by_support(scalar_orbits) == counts_by_support(odometer)


class TestInjectiveImages:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    def test_full_matrix_space(self, p, k, n):
        """Every k x n matrix, as k copies of the maps F_p -> F_p^n: the
        images are the k-dimensional subspaces of F_p^n, each reached by
        the |GL_k(F_p)| bases of it."""
        units = [[[[1 if c == j else 0 for c in range(n)]]] for j in range(n)]
        images = injective_images([n], [(k, [1], units)], PrimeField(p))
        gl = 1
        for i in range(k):
            gl *= p ** k - p ** i
        assert len(images) == gaussian_binomial(n, k, p)
        assert set(images.values()) == {gl}
        for (rows,) in images:
            assert rref(mat(PrimeField(p), rows)).matrix.rows == rows
            assert len(rows) == k

    @settings(max_examples=1000, deadline=None)
    @given(p=st.sampled_from([2, 3]),
           col_dims=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           data=st.data())
    def test_two_blocks_match_brute_force(self, p, col_dims, data):
        """One or two blocks of multiplicity 1-3 on two vertices, each copy
        with 0-2 rows per vertex, each block spanned by 0-3 random
        generators with a combination of them appended (so the span is
        dependent), against every distinct map of the sum (one element of
        its block's span per copy) tallied by per-vertex ``echelon``."""
        entry = st.integers(0, p - 1)
        inv = PrimeField(p).inverses
        blocks = []
        used = [0, 0]  # rows per vertex so far: most draws leave room to inject
        for _ in range(data.draw(st.integers(1, 2))):
            row_dims = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
            room = min(((c - u) // r for r, c, u in zip(row_dims, col_dims, used) if r),
                       default=3)
            n = data.draw(st.integers(1, max(1, min(3, room))))
            used = [u + n * r for u, r in zip(used, row_dims)]
            # at most p^6 or 3^4 distinct maps per block for the brute force
            most = min(3, (6 if p == 2 else 4) // n)
            element = st.tuples(*(
                st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r)
                for r, c in zip(row_dims, col_dims)))
            size = data.draw(st.integers(0, most))
            gens = data.draw(st.lists(element, min_size=size, max_size=size))
            if gens:
                coeffs = data.draw(st.lists(entry, min_size=len(gens),
                                            max_size=len(gens)))
                gens.append(tuple(
                    [[sum(x * g[i][r][c] for x, g in zip(coeffs, gens)) % p
                      for c in range(col_dims[i])] for r in range(row_dims[i])]
                    for i in range(2)))
            blocks.append((n, row_dims, gens))

        def span(gens, row_dims):
            mats = [[[0] * c for _ in range(r)] for r, c in zip(row_dims, col_dims)]
            deltas = [[(i, r, c, v) for i in range(2) for r, row in enumerate(g[i])
                       for c, v in enumerate(row) if v] for g in gens]
            return {tuple(tuple(map(tuple, m)) for m in mats)
                    for _ in odometer(mats, deltas, p)}

        copies = [span(gens, row_dims) for n, row_dims, gens in blocks
                  for _ in range(n)]
        want = {}
        for f in itertools.product(*copies):
            key = []
            for i in range(2):
                rows = [list(row) for g in f for row in g[i]]
                if len(echelon(rows, p, inv)) < len(rows):
                    break
                key.append(tuple(map(tuple, rows)))
            else:
                want[tuple(key)] = want.get(tuple(key), 0) + 1
        assert injective_images(col_dims, blocks, PrimeField(p)) == want

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("runs", [(1, 1), (1, 2), (2, 1), (1, 1, 1)])
    def test_runs_of_one_summand_agree(self, p, runs):
        """k copies of F_p -> F_p^3 give the same tally whether they form
        one block of multiplicity k or several shorter runs: the walk of
        the shorter runs leans on the pruning across blocks."""
        units = [[[[1 if c == j else 0 for c in range(3)]]] for j in range(3)]
        field = PrimeField(p)
        merged = injective_images([3], [(sum(runs), [1], units)], field)
        assert injective_images([3], [(n, [1], units) for n in runs], field) == merged

    @pytest.mark.parametrize("p", [2, 3])
    def test_zero_summand_and_empty_sum(self, p):
        """A zero summand has one map, so it changes nothing; the empty sum
        has the single empty map."""
        units = [[[[1 if c == j else 0 for c in range(2)]], []] for j in range(2)]
        alone = injective_images([2, 1], [(1, [1, 0], units)], PrimeField(p))
        assert injective_images([2, 1], [(1, [1, 0], units), (2, [0, 0], [])],
                                PrimeField(p)) == alone
        assert sum(alone.values()) == p ** 2 - 1
        assert injective_images([2, 1], [], PrimeField(p)) == {((), ()): 1}


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert solve_nullspace(FMatrix.identity(F3, 3)) == []

    def test_sum_vector_f2(self):
        assert solve_nullspace(mat(F2, [[1, 1]])) == [(1, 1)]

    def test_rank_nullity_f5(self):
        basis = solve_nullspace(mat(F5, [[1, 2], [2, 4]]))
        assert len(basis) == 1

    @given(st.sampled_from([2, 3, 5]),
           st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_annihilates(self, p, nr, nc, data):
        field = PrimeField(p)
        rows = [[data.draw(st.integers(0, p - 1)) for _ in range(nc)]
                for _ in range(nr)]
        m = mat(field, rows)
        basis = solve_nullspace(m)
        assert len(basis) == nc - rref(m).rank
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


class TestSubspaceEnumeration:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counts_match_gaussian_binomial(self, p):
        field = PrimeField(p)
        for d in range(5):
            for e in range(d + 1):
                got = list(enumerate_subspaces(d, e, field))
                assert len(got) == gaussian_binomial(d, e, p)
                assert len(got) == gaussian_by_counting(d, e, p)
                assert len({g.rows for g in got}) == len(got)

    def test_trivial_cases(self):
        assert len(list(enumerate_subspaces(3, 0, F2))) == 1
        assert len(list(enumerate_subspaces(3, 3, F2))) == 1

    def test_known_line_counts(self):
        assert gaussian_binomial(2, 1, 2) == 3
        assert gaussian_binomial(2, 1, 3) == 4

    def test_every_result_is_canonical(self):
        for m in enumerate_subspaces(4, 2, F3):
            res = rref(m)
            assert res.rank == 2
            assert res.matrix.rows[:2] == m.rows

    def test_cap(self, monkeypatch):
        """The cap is read on every call, so patching it takes effect."""
        monkeypatch.setattr(linalg, "SUBSPACE_CAP", 5)
        with pytest.raises(ResourceBound):
            list(enumerate_subspaces(4, 2, F5))


class TestSuperspaces:
    def test_matches_filtering(self):
        base = mat(F2, [[1, 0, 0, 1]])
        got = {s.rows for s in enumerate_superspaces(base) if s.nrows == 2}
        want = {s.rows for s in enumerate_subspaces(4, 2, F2)
                if subspace_contains(s, base)}
        assert got == want

    def test_empty_base(self):
        base = FMatrix.zeros(F3, 0, 3)
        assert [s.nrows for s in enumerate_superspaces(base)].count(1) == \
            gaussian_binomial(3, 1, 3)


class TestSubspaceCalculus:
    def test_quotient_projection_kernel(self):
        base = mat(F3, [[1, 0, 2], [0, 1, 1]])
        proj = quotient_projection(base)
        assert proj.shape == (1, 3)
        for v in base.rows:
            assert all(x == 0 for x in proj.apply(v))

    @given(p=st.sampled_from([2, 3]), d=st.integers(1, 4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_quotient_projection_kernel_is_the_row_space(self, p, d, data):
        """proj · x = 0 exactly when x lies in the row space of the base,
        over every x in F_p^d, for the reduced echelon basis of any
        spanning rows."""
        field = PrimeField(p)
        entries = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
        base = mat(field, data.draw(st.lists(entries, max_size=d + 1)), ncols=d)
        proj = quotient_projection(row_space(base))
        span = {tuple(sum(c * row[j] for c, row in zip(cs, base.rows)) % p
                      for j in range(d))
                for cs in itertools.product(range(p), repeat=base.nrows)}
        assert proj.shape == (d - len(rref_pivots(row_space(base))), d)
        for x in itertools.product(range(p), repeat=d):
            assert (not any(proj.apply(x))) == (x in span)

    @pytest.mark.parametrize("rows", [[[2, 0, 1]], [[0, 1, 0], [1, 0, 0]],
                                      [[1, 1, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 0]]],
                             ids=["lead-2", "unsorted", "unreduced", "zero-row"])
    def test_quotient_projection_rejects_unreduced_base(self, rows):
        with pytest.raises(ValueError, match="reduced echelon"):
            quotient_projection(mat(F3, rows))

    def test_preimage(self):
        # map F_3^2 -> F_3^3 by injecting into first two coordinates
        m = mat(F3, [[1, 0], [0, 1], [0, 0]])
        target = mat(F3, [[1, 0, 0]])
        pre = preimage_subspace(m, target)
        assert pre.rows == ((1, 0),)

    def test_intersection(self):
        a = mat(F2, [[1, 0, 0], [0, 1, 0]])
        b = mat(F2, [[0, 1, 0], [0, 0, 1]])
        both = intersect_subspaces(a, b)
        assert both.rows == ((0, 1, 0),)

    def test_subspaces_between_matches_filter(self):
        lower = mat(F2, [[1, 1, 0, 0]])
        upper = mat(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        got = {s.rows for s in subspaces_between(lower, upper) if s.nrows == 2}
        want = {s.rows for s in enumerate_subspaces(4, 2, F2)
                if subspace_contains(s, lower) and subspace_contains(upper, s)}
        assert got == want

    @given(p=st.sampled_from([2, 3]), d=st.integers(1, 4), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bases_by_construction_match_filter(self, p, d, data):
        """``subspaces_between`` and ``enumerate_superspaces`` build their
        echelon bases without re-echeloning; each must list, dimension by
        dimension, exactly the canonical bases that a filter of
        ``enumerate_subspaces`` keeps, for random lower <= upper (lower
        given by any spanning rows, dependent or zero ones too)."""
        field = PrimeField(p)
        entries = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
        upper = row_space(mat(field, data.draw(st.lists(entries, max_size=d)), ncols=d))
        h = upper.nrows
        coeffs = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=h,
                                             max_size=h), max_size=d))
        lower = mat(field, [[sum(c * row[j] for c, row in zip(cs, upper.rows)) % p
                             for j in range(d)] for cs in coeffs], ncols=d)
        every = [s for e in range(d + 1) for s in enumerate_subspaces(d, e, field)]
        between = list(subspaces_between(lower, upper))
        assert sorted(s.rows for s in between) == sorted(
            s.rows for s in every
            if subspace_contains(s, lower) and subspace_contains(upper, s))
        above = list(enumerate_superspaces(lower))
        assert sorted(s.rows for s in above) == sorted(
            s.rows for s in every if subspace_contains(s, lower))
        for walk in (between, above):
            dims = [s.nrows for s in walk]
            assert dims == sorted(dims)

    def test_row_space_canonical(self):
        m = mat(F5, [[2, 4], [1, 2]])
        assert row_space(m).rows == ((1, 2),)
