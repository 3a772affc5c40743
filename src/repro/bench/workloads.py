"""The five RISC-V benchmark kernels of Figure 6, in RV-lite assembly.

The paper simulates median, rsort, qsort, matrix_mul and rsa from the
riscv-tests / AM suites.  We implement the same algorithms at reduced
data sizes (the paper likewise reduces input sizes to fit its 2 KB
caches):

- ``median``   — 3-point median filter over an 8-element array;
- ``rsort``    — exchange sort (the radix variant degenerates at this
  scale; the memory-traffic pattern is what matters for Figure 6);
- ``qsort``    — insertion sort (recursion-free stand-in with the same
  compare/shift memory behaviour at 8 elements);
- ``matrix_mul`` — 2x2 integer matrix multiply using MUL;
- ``rsa``      — modular exponentiation by repeated multiply/reduce.

Every workload is self-checking: the expected memory image comes from
the architectural interpreter, so a workload run doubles as an
end-to-end functional test of whichever core executes it.

Data layout: inputs live in low data memory, outputs at the documented
addresses, and the top ``secret_words`` addresses are never touched —
they hold the (tainted) secret, mirroring the paper's setup where the
first input elements are tainted and the rest of memory is public.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.cores.common import CoreConfig
from repro.cores.isa import IsaInterpreter, assemble
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class Workload:
    """A runnable benchmark kernel."""

    name: str
    description: str
    source: str
    min_xlen: int = 8
    data_depth: int = 16   # data addresses used (must avoid the secret region)

    @functools.cached_property
    def program(self) -> List[int]:
        return assemble(self.source)

    def make_data(self, rng: random.Random, cfg: CoreConfig) -> Dict[int, int]:
        limit = min(256, 1 << cfg.xlen)
        if self.name == "matrix_mul":
            return {i: rng.randrange(1, 16) for i in range(8)}
        if self.name == "rsa":
            return {0: rng.randrange(2, 20), 1: rng.randrange(1, 6),
                    2: rng.randrange(10, 30)}
        return {i: rng.randrange(limit) for i in range(8)}

    def expected_memory(self, data: Dict[int, int], cfg: CoreConfig) -> List[int]:
        """Golden final data memory, from the architectural interpreter."""
        interp = IsaInterpreter(
            self.program, xlen=cfg.xlen,
            imem_depth=max(cfg.imem_depth, len(self.program)),
            dmem_depth=cfg.dmem_depth, dmem=data,
        )
        steps = interp.run(max_steps=20000)
        if not interp.halted:
            raise RuntimeError(f"workload {self.name} did not halt in 20000 steps")
        return list(interp.dmem)

    def reference_instructions(self, data: Dict[int, int], cfg: CoreConfig) -> int:
        interp = IsaInterpreter(
            self.program, xlen=cfg.xlen,
            imem_depth=max(cfg.imem_depth, len(self.program)),
            dmem_depth=cfg.dmem_depth, dmem=data,
        )
        return interp.run(max_steps=20000)


_MEDIAN = """
    li  r1, 1
loop:
    addi r7, r1, -1
    lw  r2, 0(r7)        ; a[i-1]
    lw  r3, 1(r7)        ; a[i]
    lw  r4, 2(r7)        ; a[i+1]
    slt r5, r3, r2
    beq r5, r0, s1
    add r6, r2, r0
    add r2, r3, r0
    add r3, r6, r0
s1:
    slt r5, r4, r3
    beq r5, r0, s2
    add r6, r3, r0
    add r3, r4, r0
    add r4, r6, r0
s2:
    slt r5, r3, r2
    beq r5, r0, s3
    add r3, r2, r0
s3:
    addi r7, r1, 8       ; out[i] at 8+i
    sw  r3, 0(r7)
    addi r1, r1, 1
    li  r5, 7
    bne r1, r5, loop
    halt
"""

_RSORT = """
    li  r1, 0            ; i
outer:
    addi r2, r1, 1       ; j
inner:
    lw  r3, 0(r1)
    lw  r4, 0(r2)
    slt r5, r4, r3
    beq r5, r0, noswap
    sw  r4, 0(r1)
    sw  r3, 0(r2)
noswap:
    addi r2, r2, 1
    li  r5, 8
    bne r2, r5, inner
    addi r1, r1, 1
    li  r5, 7
    bne r1, r5, outer
    halt
"""

_QSORT = """
    li  r1, 1            ; i
outs:
    lw  r2, 0(r1)        ; key
    addi r3, r1, -1      ; j
ins:
    lw  r4, 0(r3)
    slt r5, r2, r4
    beq r5, r0, place
    sw  r4, 1(r3)        ; a[j+1] = a[j]
    addi r3, r3, -1
    li  r6, -1
    bne r3, r6, ins
place:
    sw  r2, 1(r3)        ; a[j+1] = key
    addi r1, r1, 1
    li  r6, 8
    bne r1, r6, outs
    halt
"""

_MATRIX_MUL = """
    li  r1, 0            ; i
mi: li  r2, 0            ; j
mj: li  r3, 0            ; k
    li  r6, 0            ; acc
mk: add r4, r1, r1       ; 2*i
    add r4, r4, r3
    lw  r4, 0(r4)        ; A[i][k]
    add r5, r3, r3       ; 2*k
    add r5, r5, r2
    lw  r5, 4(r5)        ; B[k][j]
    mul r4, r4, r5
    add r6, r6, r4
    addi r3, r3, 1
    li  r5, 2
    bne r3, r5, mk
    add r4, r1, r1
    add r4, r4, r2
    sw  r6, 8(r4)        ; C[i][j]
    addi r2, r2, 1
    li  r5, 2
    bne r2, r5, mj
    addi r1, r1, 1
    li  r5, 2
    bne r1, r5, mi
    halt
"""

_RSA = """
    lw  r1, 0(r0)        ; base
    lw  r2, 1(r0)        ; exponent
    lw  r3, 2(r0)        ; modulus
    li  r4, 1            ; result
expl:
    beq r2, r0, done
    mul r4, r4, r1
modl:
    slt r5, r4, r3
    bne r5, r0, modd
    sub r4, r4, r3
    j   modl
modd:
    addi r2, r2, -1
    j   expl
done:
    sw  r4, 8(r0)
    halt
"""

WORKLOADS: Dict[str, Workload] = {
    "median": Workload(
        "median", "3-point median filter over an 8-element array", _MEDIAN),
    "rsort": Workload(
        "rsort", "in-place exchange sort of 8 elements", _RSORT),
    "qsort": Workload(
        "qsort", "insertion sort of 8 elements", _QSORT),
    "matrix_mul": Workload(
        "matrix_mul", "2x2 integer matrix multiply", _MATRIX_MUL),
    "rsa": Workload(
        "rsa", "modular exponentiation (repeated multiply/reduce)", _RSA,
        min_xlen=16),
}


def workload_names() -> List[str]:
    return list(WORKLOADS)


def run_workload(sim: Simulator, core, workload: Workload, seed: int,
                 max_cycles: int = 20000, self_check: bool = True) -> int:
    """Execute one workload for one data seed: the Figure-6 overhead
    sweep's inner loop.  Returns the cycle count at which it halted.

    ``sim`` simulates ``core.circuit`` or a taint-instrumented variant
    sharing its signal names.  It is reset to the program and the seed's
    data memory first, so a sweep over seeds builds it once.  It runs
    until ``core.halted`` fires and keeps that state for the caller to
    read; the data memory is (by default) checked against the
    architectural interpreter.
    """
    cfg = core.config
    data = workload.make_data(random.Random(seed), cfg)
    sim.reset(core.initial_state_for(workload.program, data))
    for cycles in range(1, max_cycles + 1):
        sim.step({})
        if sim.peek(core.halted):
            break
    else:
        raise RuntimeError(
            f"{workload.name} on {core.name}: seed {seed} did not halt "
            f"in {max_cycles} cycles")
    if self_check:
        for address, value in enumerate(workload.expected_memory(data, cfg)):
            got = sim.peek(core.dmem_words[address])
            if got != value:
                raise AssertionError(
                    f"{workload.name} on {core.name} (seed {seed}): "
                    f"mem[{address}] = {got}, expected {value}")
    return cycles
