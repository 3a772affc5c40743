#!/usr/bin/env python3
"""Rediscover the two ProSpeCT bugs (paper Appendix C) formally.

For each bug, the buggy core is instrumented with precise taint, the
gadget program is pinned into instruction memory, and bounded model
checking finds a cycle where the microarchitectural observation taint
fires; the exact two-copy check then confirms the leak is *real* (the
secret provably changes an attacker-visible signal).  The fixed core
(ProSpeCT-S) is shown clean on the same gadgets.

Run:  python examples/find_prospect_bugs.py        (~1 minute)
"""

from repro.bench.gadgets import NESTED_BRANCH_GADGET, SPECTRE_GADGET, check_gadget
from repro.cores import CoreConfig, build_prospect

CFG = CoreConfig.formal()


def report_gadget(core, program, label, max_bound=10):
    """Directed formal check: pin the program, search for tainted sinks."""
    check = check_gadget(core, program, max_bound, time_limit=180)
    if check.counterexample is None:
        print(f"  {label}: no violation up to {check.bound} cycles "
              f"({check.elapsed:.1f}s) -> SECURE on this gadget")
        return
    verdict = "REAL LEAK" if check.real else "spurious taint"
    print(f"  {label}: taint on {check.sink} at cycle {check.bound} "
          f"({check.elapsed:.1f}s) -> {verdict}")


def main() -> None:
    print("Bug 1: issue gate consults the wrong source register's secret bit")
    print(" buggy core (bug 1 enabled), Spectre gadget:")
    report_gadget(build_prospect(CFG, bug1=True, bug2=False), SPECTRE_GADGET, "ProSpeCT+bug1")
    print(" fixed core (ProSpeCT-S), same gadget:")
    report_gadget(build_prospect(CFG, secure=True), SPECTRE_GADGET, "ProSpeCT-S")

    print("\nBug 2: transient flags cleared when *any* branch resolves")
    print(" buggy core (bug 2 enabled), nested-branch gadget:")
    report_gadget(build_prospect(CFG, bug1=False, bug2=True), NESTED_BRANCH_GADGET,
                  "ProSpeCT+bug2", max_bound=14)
    print(" fixed core (ProSpeCT-S), same gadget:")
    report_gadget(build_prospect(CFG, secure=True), NESTED_BRANCH_GADGET,
                  "ProSpeCT-S", max_bound=14)


if __name__ == "__main__":
    main()
