"""Fast mode's one-pass cell finder against the scan it replaced.

``realised_cells`` finds a product's (site, bucket) cells holding a
completed session in one pass over the Bernoulli matrix.  The
reference here is the per-(site, bucket) scan the runner made before
it: group the sessions by bucket with a stable sort, then slice and
mask every bucket of every site, skipping empty ones and summing the
column of a whitelisted site.  Both must yield the same
``(site, bucket, members)`` sequence, in the same order, and the same
whitelisted totals, zeros included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.study.runner import realised_cells


def scanned_cells(client_indices, completions, n_buckets, relayed):
    """The per-(site, bucket) scan: cells in visit order, relayed totals."""
    buckets = client_indices % n_buckets
    order = np.argsort(buckets, kind="stable")
    grouped = client_indices[order]
    bounds = np.searchsorted(buckets[order], np.arange(n_buckets + 1))
    completions = completions[order]
    cells, totals = [], {}
    for site_index, site_relayed in enumerate(relayed):
        column = completions[:, site_index]
        if site_relayed:
            totals[site_index] = int(column.sum())
            continue
        for bucket in range(n_buckets):
            segment = slice(int(bounds[bucket]), int(bounds[bucket + 1]))
            members = grouped[segment][column[segment]]
            if not members.size:
                continue
            cells.append((site_index, bucket, [int(m) for m in members]))
    return cells, totals


probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def draws(draw):
    sessions = draw(st.integers(0, 200))
    n_buckets = draw(st.integers(1, 32))
    n_sites = draw(st.integers(1, 20))
    probs = np.array(draw(st.lists(probabilities, min_size=n_sites, max_size=n_sites)))
    relayed = draw(st.lists(st.booleans(), min_size=n_sites, max_size=n_sites))
    pool_size = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    client_indices = rng.integers(0, pool_size, size=sessions)
    completions = rng.random((sessions, n_sites)) < probs
    return client_indices, completions, n_buckets, relayed


class TestRealisedCells:
    @settings(max_examples=300, deadline=None)
    @given(draws())
    def test_same_cells_in_the_same_order(self, case):
        client_indices, completions, n_buckets, relayed = case
        expected_cells, expected_totals = scanned_cells(*case)
        totals, cells = realised_cells(*case)
        assert len(cells) == len(relayed) == len(totals)
        flat = [
            (site, bucket, members)
            for site, site_cells in enumerate(cells)
            for bucket, members in site_cells
        ]
        assert flat == expected_cells
        assert {
            site: total for site, total in enumerate(totals) if relayed[site]
        } == expected_totals
        assert all(type(total) is int for total in totals)
        assert all(
            type(member) is int for _, _, members in flat for member in members
        )

    def test_edge_matrices(self):
        indices = np.array([5, 3, 37, 3, 64])
        everything = np.ones((5, 3), dtype=bool)
        nothing = np.zeros((5, 3), dtype=bool)
        for completions in (everything, nothing):
            for relayed in ([False] * 3, [True] * 3, [True, False, True]):
                case = (indices, completions, 32, relayed)
                expected_cells, expected_totals = scanned_cells(*case)
                totals, cells = realised_cells(*case)
                assert [
                    (site, bucket, members)
                    for site, site_cells in enumerate(cells)
                    for bucket, members in site_cells
                ] == expected_cells
                assert {
                    site: totals[site] for site in expected_totals
                } == expected_totals
