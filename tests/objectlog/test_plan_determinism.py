"""Regression: compiled plans must be identical across processes.

Differential plans are compiled independently by every process that
builds a propagation network — the server leader, every replica
applying the WAL, every recovery.  If the compiler ever keys a decision
on set iteration order (which varies with ``PYTHONHASHSEED``), two
processes disagree on register layout or join order and every
cross-process invariant (replica equivalence, plan-cache reuse)
silently degrades.

Historically the compiler sorted free head/body variables with
``key=repr`` in one place and ``key=lambda v: v.name`` in another;
:func:`repro.objectlog.terms.ordered_variables` is now the single
canonical ordering, and this test pins it by digesting plans compiled
under different hash seeds in fresh interpreters.
"""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = r"""
import json
import sys

from repro.objectlog.batch import compile_plan
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Assignment, Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Arith, Variable, ordered_variables

# enough variables that hash-ordered iteration would be visibly unstable
names = ["X", "Y", "Z", "W", "U", "V", "Alpha", "beta", "a1", "a2"]
V = {name: Variable(name) for name in names}

program = Program()
program.declare_base("e1", 2)
program.declare_base("e2", 2)
program.declare_base("e3", 2)
program.declare_base("wide", 4)

clauses = [
    # triangle: fusion group + global variable order
    HornClause(
        PredLiteral("t", (V["X"], V["Y"], V["Z"])),
        [
            PredLiteral("e1", (V["X"], V["Y"])),
            PredLiteral("e2", (V["Y"], V["Z"])),
            PredLiteral("e3", (V["X"], V["Z"])),
        ],
    ),
    # many-variable body: slot assignment order
    HornClause(
        PredLiteral("w", (V["a1"], V["a2"], V["Alpha"], V["beta"])),
        [
            PredLiteral("wide", (V["a1"], V["a2"], V["Alpha"], V["beta"])),
            PredLiteral("wide", (V["U"], V["V"], V["a1"], V["a2"])),
            PredLiteral("e1", (V["U"], V["W"])),
            Comparison("<", V["W"], 7),
        ],
    ),
    # generated expressions over a variable set: comparison and
    # assignment operands in the source
    HornClause(
        PredLiteral("a", (V["X"], V["beta"])),
        [
            PredLiteral("e1", (V["X"], V["Y"])),
            PredLiteral("e2", (V["Alpha"], V["Y"])),
            Assignment(V["beta"], Arith("+", V["Y"], Arith("*", V["X"], 2))),
            Comparison("<", V["beta"], V["Alpha"]),
        ],
    ),
    # delta-anchored differential shape
    HornClause(
        PredLiteral("d", (V["X"], V["Y"], V["Z"])),
        [
            PredLiteral("e1", (V["X"], V["Y"]), delta="+"),
            PredLiteral("e2", (V["Y"], V["Z"])),
            PredLiteral("e3", (V["X"], V["Z"])),
        ],
    ),
]

digest = []
for clause in clauses:
    for wcoj in (False, True):
        plan = compile_plan(clause, program, wcoj=wcoj)
        digest.append(
            {
                "clause": repr(plan.clause),
                "wcoj": wcoj,
                "fused": plan.fused,
                "n_slots": plan.n_slots,
                "slots": sorted(
                    (var.name, slot) for var, slot in plan.slot_of.items()
                ),
                "steps": [
                    list(getattr(step, "wcoj", ())) for step in plan.steps
                ],
                "source": plan.source,
            }
        )
digest.append(
    {"ordered": [v.name for v in ordered_variables(set(V.values()))]}
)
json.dump(digest, sys.stdout)
"""


def compile_digest(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


class TestPlanDeterminism:
    def test_plans_identical_across_hash_seeds(self):
        digests = [compile_digest(seed) for seed in (0, 1, 31337)]
        assert digests[0] == digests[1] == digests[2]
        # sanity: the probe exercised both plan shapes
        assert any(entry.get("fused") for entry in digests[0])
        assert any(
            meta for entry in digests[0] for meta in entry.get("steps", [])
        )

    def test_ordered_variables_is_name_sorted(self):
        from repro.objectlog.terms import Arith, Variable, ordered_variables

        variables = {Variable(name) for name in ("b", "A", "c", "aa")}
        assert [v.name for v in ordered_variables(variables)] == [
            "A",
            "aa",
            "b",
            "c",
        ]
