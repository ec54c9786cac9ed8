"""One budget object, NodeBudget, counts the nodes of every search and
raises SearchBudgetExceeded, and UnsupportedInstanceError is one kind of
that exception."""

import pytest

from capfree.decomposition import UnsupportedInstanceError
from capfree.graphs import Graph, gnp, hole
from capfree.oracles import (NodeBudget, SearchBudgetExceeded, brute_solve,
                             enumerate_chordless_cycles)
from capfree.solvers import chromatic_number, mwss

GRID6 = Graph(36, [(r * 6 + c, r * 6 + c + 1)
                   for r in range(6) for c in range(5)]
              + [(r * 6 + c, (r + 1) * 6 + c)
                 for r in range(5) for c in range(6)])


def test_spend_counts_nodes_and_names_the_search_when_they_run_out():
    nodes = NodeBudget("the test search", 5)
    nodes.spend()
    nodes.spend(4)
    assert nodes.left == 0
    with pytest.raises(SearchBudgetExceeded,
                       match="^the test search ran out of its budget of "
                             "5 nodes$"):
        nodes.spend()


def test_no_bound_never_runs_out():
    nodes = NodeBudget("the test search", None)
    nodes.spend(10 ** 12)
    assert nodes.left > 0


def test_an_unsupported_instance_is_a_budget_that_ran_out():
    assert issubclass(UnsupportedInstanceError, SearchBudgetExceeded)
    with pytest.raises(SearchBudgetExceeded,
                       match="the stable-set DP ran out of its budget of "
                             "10 nodes$"):
        mwss(GRID6, budget=10)


@pytest.fixture
def spent(monkeypatch):
    """The nodes each search spends through NodeBudget.spend, by name."""
    counts = {}
    spend = NodeBudget.spend

    def counted(self, count=1):
        counts[self.search] = counts.get(self.search, 0) + count
        spend(self, count)

    monkeypatch.setattr(NodeBudget, "spend", counted)
    return counts


SEARCHES = {
    "the stable-set DP": lambda: mwss(GRID6),
    "the coloring DP": lambda: chromatic_number(GRID6),
    "the brute-force mwss search": lambda: brute_solve(hole(7), "mwss"),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_every_search_spends_through_the_budget(spent, search):
    SEARCHES[search]()
    assert spent[search] > 0


def test_the_induced_path_search_hands_its_pops_over_when_they_run_out(
        spent):
    with pytest.raises(SearchBudgetExceeded):
        enumerate_chordless_cycles(gnp(30, 0.5, 1), budget=10)
    assert spent == {"the chordless-cycle enumeration": 11}
