import pytest

from repro.hdl import ModuleBuilder
from repro.formal import Counterexample
from repro.cegar.falsetaint import (
    FastFalseTaintOracle,
    SecretSpec,
    exact_false_taint_check,
)


def _leak_circuit():
    """o = sel ? secret : pub ; carried through a register."""
    b = ModuleBuilder("t")
    sel = b.input("sel", 1)
    sec = b.reg("secret", 4)
    sec.drive(sec)
    pub = b.reg("pub", 4)
    pub.drive(pub)
    r = b.reg("r", 4)
    r.drive(b.mux(sel, sec, pub))
    b.output("o", r)
    return b.build()


def _cex(sel_values, secret=0xA, pub=3):
    return Counterexample(
        length=len(sel_values),
        inputs=[{"sel": s} for s in sel_values],
        initial_state={"secret": secret, "pub": pub},
    )


class TestFastOracle:
    def test_selected_secret_is_truly_tainted(self):
        circ = _leak_circuit()
        cex = _cex([1, 0, 0])
        oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"secret": 0xF}))
        # r holds the secret at cycle 1
        assert not oracle.is_falsely_tainted("r", 1)
        assert not oracle.is_falsely_tainted("o", 1)

    def test_unselected_secret_is_falsely_tainted(self):
        circ = _leak_circuit()
        cex = _cex([0, 0, 0])
        oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"secret": 0xF}))
        assert oracle.is_falsely_tainted("o", 1)
        assert oracle.is_falsely_tainted("r", 2)

    def test_value_changed_points_at_secret_itself(self):
        circ = _leak_circuit()
        cex = _cex([0])
        oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"secret": 0xF}))
        assert oracle.value_changed("secret", 0)

    def test_partial_mask_flip(self):
        spec = SecretSpec({"secret": 0b0011})
        flipped = spec.flip({"secret": 0b1010, "pub": 5}, {"secret": 4, "pub": 4},
                            {"secret": 0, "pub": 0})
        assert flipped["secret"] == 0b1001
        assert flipped["pub"] == 5

    def test_absent_secret_flips_from_its_reset(self):
        """A counterexample may leave out a secret its property cannot read."""
        spec = SecretSpec({"secret": 0b0011, "other": 0b1})
        flipped = spec.flip({"pub": 5}, {"secret": 4, "pub": 4}, {"secret": 0b0100, "pub": 0})
        assert flipped == {"pub": 5, "secret": 0b0111}

    def test_oracle_flips_a_secret_the_counterexample_omits(self):
        circ = _leak_circuit()
        cex = Counterexample(length=2, inputs=[{"sel": 1}, {"sel": 0}],
                             initial_state={"pub": 3})
        oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"secret": 0xF}))
        assert oracle.value_changed("secret", 0)
        assert not oracle.is_falsely_tainted("r", 1)


class TestExactCheck:
    def test_exact_check_agrees_on_true_taint(self):
        circ = _leak_circuit()
        cex = _cex([1, 0])
        assert exact_false_taint_check(circ, cex, ["secret"], "o") is False

    def test_exact_check_agrees_on_false_taint(self):
        circ = _leak_circuit()
        cex = _cex([0, 0])
        assert exact_false_taint_check(circ, cex, ["secret"], "o") is True

    def test_exact_check_beats_fast_test_on_coincidence(self):
        """The fast test can over-claim: if flipping all secret bits
        happens not to change the value, the exact check still sees the
        flow.  Construct o = secret XOR flipped(secret) reaching a point
        where the single flip pattern is blind but others are not."""
        b = ModuleBuilder("t")
        sec = b.reg("secret", 2)
        sec.drive(sec)
        # o = sec[0] xor sec[1]: flipping BOTH bits keeps o constant,
        # but flipping one bit changes it -> truly tainted.
        b.output("o", (sec[0] ^ sec[1]).zext(2))
        circ = b.build()
        cex = Counterexample(1, [{}], {"secret": 0b01})
        oracle = FastFalseTaintOracle(circ, cex, SecretSpec({"secret": 0b11}))
        assert oracle.is_falsely_tainted("o", 0)          # fast test over-claims
        assert exact_false_taint_check(circ, cex, ["secret"], "o") is False  # exact truth

    def test_bounded_to_trace_length(self):
        # A secret that reaches o only after 3 cycles is "falsely
        # tainted" within a length-2 trace.
        b = ModuleBuilder("t")
        sec = b.reg("secret", 4)
        sec.drive(sec)
        p1 = b.reg("p1", 4)
        p2 = b.reg("p2", 4)
        p1.drive(sec)
        p2.drive(p1)
        b.output("o", p2)
        circ = b.build()
        short = Counterexample(2, [{}, {}], {"secret": 5, "p1": 0, "p2": 0})
        assert exact_false_taint_check(circ, short, ["secret"], "o") is True
        longer = Counterexample(3, [{}] * 3, {"secret": 5, "p1": 0, "p2": 0})
        assert exact_false_taint_check(circ, longer, ["secret"], "o") is False
