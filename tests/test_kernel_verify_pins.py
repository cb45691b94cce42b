"""Kernel outputs and verify verdicts are pinned.

One digest covers ``kernelize`` over a seeded corpus of and/or DAGs, each
kernelized at k = 0, opt - 1, opt, opt + 1 and a random k, and every
nonempty kernel kernelized again at the same k: the log, r, the forbidden
weight and the repr of the reduced graph, whose dicts keep the input's
order.  A second digest covers the ``VerifyResult`` of random edge subsets
of valid and/or and x-y graphs, violation texts included.  Both were
recorded from the string-keyed kernelizer and verifier that the index-based
ones replaced.
"""

import hashlib
import re
from random import Random

import pytest

from andorxy import (
    AND,
    OR,
    AndOrGraph,
    InvalidGraphError,
    SolutionSubgraph,
    XYGraph,
    andor_to_xy,
    kernelize,
    solve_exact_andor,
    verify_solution_andor,
    verify_solution_xy,
)
from andorxy.generators import GeneratorConfig, gen_andor, gen_xy

KERNEL_DIGEST = "1d8816e3fb2289a4"
VERIFY_DIGEST = "03e074bded377528"


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _kernel_runs():
    rng = Random(22)
    out = []
    for i in range(400):
        g = gen_andor(GeneratorConfig(n=2 + i % 15, seed=3000 + i, weight_hi=(3, 6, 9)[i % 3],
                                      and_fraction=(0.3, 0.5, 0.7, 0.9)[i % 4],
                                      density=0.15 + i % 5 / 10))
        opt = solve_exact_andor(g).optimum
        for k in (0, opt - 1, opt, opt + 1, rng.randint(0, 2 * opt + 2)):
            kr = kernelize(g, k)
            runs = [kr] if kr.empty else [kr, kernelize(kr.reduced, k)]
            out += [(run.log, run.r, run.forbidden_weight, repr(run.reduced)) for run in runs]
    return out


def _subsets(rng, g):
    edges = sorted(g.edges)
    return [frozenset(e for e in edges if rng.random() < p) for p in (0.2, 0.5, 0.8, 1.0)
            for _ in range(3)]


def _verify_runs():
    rng = Random(23)
    out = []
    for i in range(120):
        cfg = GeneratorConfig(n=1 + i % 13, seed=4000 + i, weight_hi=9,
                              and_fraction=(0.2, 0.5, 0.8)[i % 3], density=0.2 + i % 4 / 10)
        andor, xy = gen_andor(cfg), gen_xy(cfg)
        sub_of = andor_to_xy(andor)
        for g, verify in ((andor, verify_solution_andor), (sub_of, verify_solution_xy),
                          (xy, verify_solution_xy)):
            subsets = _subsets(rng, g)
            if g is andor:
                subsets.append(solve_exact_andor(g).witness.edges)
            out += [verify(g, SolutionSubgraph(sub)) for sub in subsets]
    return out


def test_kernelize_outputs_are_pinned():
    assert _digest(_kernel_runs()) == KERNEL_DIGEST


def test_verify_results_are_pinned():
    assert _digest(_verify_runs()) == VERIFY_DIGEST


_CYCLIC = AndOrGraph({"s": OR, "a": AND, "b": OR}, {("s", "a"): 1, ("a", "b"): 1, ("b", "a"): 1}, "s")
_XY_BAD_Y = XYGraph({"s": (1, 3), "a": (0, 0), "b": (0, 0)}, {("s", "a"): 1, ("s", "b"): 1}, "s")
_ANDOR = AndOrGraph({"s": AND, "a": OR, "b": OR}, {("s", "a"): 1, ("s", "b"): 2}, "s")
_XY = XYGraph({"s": (1, 2), "a": (0, 0), "b": (0, 0)}, {("s", "a"): 1, ("s", "b"): 2}, "s")


@pytest.mark.parametrize("verify,g", [
    (verify_solution_andor, _CYCLIC),
    (verify_solution_xy, _XY_BAD_Y),
    (verify_solution_andor, _XY),
    (verify_solution_xy, _ANDOR),
], ids=["andor-cyclic", "xy-bad-y", "andor-given-xy", "xy-given-andor"])
def test_verify_rejects_an_invalid_host_or_one_of_the_wrong_kind(verify, g):
    with pytest.raises(InvalidGraphError):
        verify(g, SolutionSubgraph(frozenset({("s", "a")})))


@pytest.mark.parametrize("element", [("s",), "sa", ("s", "a", 0)], ids=["one", "string", "triple"])
@pytest.mark.parametrize("verify,g", [(verify_solution_andor, _ANDOR), (verify_solution_xy, _XY)],
                         ids=["andor", "xy"])
def test_verify_names_a_solution_element_that_is_not_a_pair(verify, g, element):
    with pytest.raises(ValueError, match=re.escape(f"solution element {element!r} is not a (tail, head) pair")):
        verify(g, SolutionSubgraph(frozenset({("s", "a"), element})))
