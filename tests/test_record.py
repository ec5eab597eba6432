"""Every record class behaves as the frozen dataclass it replaces.

Each sample pins the repr a dataclass printed for it; the other checks
hold for any frozen dataclass with value equality.
"""

import math
import pickle
import re

import pytest

from ceq.core import Instance, Journal, Normalized, RejectReason, Rejection, Tag, Witness
from ceq.errors import DimMismatch
from ceq.field import field
from ceq.matrix import Mat, Mono, Perm
from ceq.oracle import Budget, DecideResult, GenSpec, Generated, Mode, Planted, Status
from ceq.reduction import ReductionCert

F3 = field(3)
G = Mat(F3, [[1, 0, 2], [0, 1, 1]])
H = Mat(F3, [[0, 1, 1], [1, 0, 2]])
S = Mat(F3, [[0, 1], [1, 0]])
I2 = Mat.identity(F3, 2)
INST = Instance(F3, G, H, Tag.PCE)
MONO = Mono(F3, Perm((0, 1, 2)), (1, 1, 1))
JOURNAL = Journal(INST, INST, (), (), 2, I2, I2)
INST_REPR = "Instance(field=GF(3), G=Mat(GF(3), 2x3), H=Mat(GF(3), 2x3), tag=<Tag.PCE: 'PCE'>)"
MONO_REPR = "Mono(field=GF(3), perm=Perm(sigma=(0, 1, 2)), diag=(1, 1, 1))"
JOURNAL_REPR = (
    f"Journal(original={INST_REPR}, normalized={INST_REPR}, removed_g=(), removed_h=(), rank=2, "
    "u_g=Mat(GF(3), 2x2), u_h=Mat(GF(3), 2x2))"
)

# (make, a variant differing in one field, the dataclass repr of make())
SAMPLES = {
    "Perm": (
        lambda: Perm((1, 2, 0)),
        lambda: Perm((2, 0, 1)),
        "Perm(sigma=(1, 2, 0))",
    ),
    "Mono": (
        lambda: Mono(F3, Perm((1, 0)), (1, 2)),
        lambda: Mono(F3, Perm((1, 0)), (2, 2)),
        "Mono(field=GF(3), perm=Perm(sigma=(1, 0)), diag=(1, 2))",
    ),
    "Instance": (
        lambda: Instance(F3, G, H, Tag.PCE),
        lambda: Instance(F3, G, H, Tag.LCE),
        INST_REPR,
    ),
    "Witness": (
        lambda: Witness(S, MONO),
        lambda: Witness(I2, MONO),
        f"Witness(S=Mat(GF(3), 2x2), M={MONO_REPR})",
    ),
    "Journal": (
        lambda: Journal(INST, INST, (), (), 2, I2, I2),
        lambda: Journal(INST, INST, (), (), 2, I2, S),
        JOURNAL_REPR,
    ),
    "Rejection": (
        lambda: Rejection(RejectReason.RANK_MISMATCH),
        lambda: Rejection(RejectReason.PROFILE_MISMATCH),
        "Rejection(reason=<RejectReason.RANK_MISMATCH: 'RankMismatch'>)",
    ),
    "Normalized": (
        lambda: Normalized(INST, JOURNAL),
        lambda: Normalized(Instance(F3, H, G, Tag.PCE), JOURNAL),
        f"Normalized(instance={INST_REPR}, journal={JOURNAL_REPR})",
    ),
    "Budget": (
        lambda: Budget(),
        lambda: Budget(time_limit=2.5),
        "Budget(max_nodes=100000000, time_limit=None, mode=<Mode.EXHAUSTIVE: 'exhaustive'>)",
    ),
    "DecideResult": (
        lambda: DecideResult(Status.YES, Witness(S, MONO), 7, 0.25),
        lambda: DecideResult(Status.YES, Witness(S, MONO), 7, 0.25, "x"),
        f"DecideResult(status=<Status.YES: 'YES'>, witness=Witness(S=Mat(GF(3), 2x2), M={MONO_REPR}), "
        "nodes=7, elapsed=0.25, detail='')",
    ),
    "GenSpec": (
        lambda: GenSpec(F3, 2, 4, Tag.SPCE, Planted.YES, 9, (2, 1, 1)),
        lambda: GenSpec(F3, 2, 4, Tag.SPCE, Planted.YES, 9),
        "GenSpec(field=GF(3), k=2, n=4, tag=<Tag.SPCE: 'SPCE'>, planted=<Planted.YES: 'yes'>, "
        "seed=9, profile=(2, 1, 1))",
    ),
    "Generated": (
        lambda: Generated(INST),
        lambda: Generated(INST, Witness(S, MONO)),
        f"Generated(instance={INST_REPR}, witness=None)",
    ),
    "ReductionCert": (
        lambda: ReductionCert(F3, Tag.LCE, 3, 2, 2, JOURNAL),
        lambda: ReductionCert(F3, Tag.LCE, 3, 2, 3, JOURNAL),
        f"ReductionCert(field=GF(3), target=<Tag.LCE: 'LCE'>, n=3, k=2, m=2, journal={JOURNAL_REPR}, "
        "reject_reason=None, degenerate=False)",
    ),
}
NAMES = sorted(SAMPLES)


def _values(obj):
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


def test_every_record_class_is_sampled():
    import ceq
    from ceq.record import Record

    exported = [getattr(ceq, name) for name in ceq.__all__]
    records = {cls.__name__ for cls in exported if isinstance(cls, type) and issubclass(cls, Record)}
    assert records == set(SAMPLES)


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    make, variant, _ = SAMPLES[name]
    a, b, c = make(), make(), variant()
    assert type(a).__name__ == name
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    # a frozen dataclass hashes the tuple of its fields
    assert hash(a) == hash(_values(a))
    assert a != _values(a)
    other = SAMPLES[NAMES[NAMES.index(name) - 1]][0]()
    assert a.__eq__(other) is NotImplemented and a != other
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    make, _, want = SAMPLES[name]
    assert repr(make()) == want


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_frozen(name):
    a = SAMPLES[name][0]()
    before = _values(a)
    for f in type(a).__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert not hasattr(a, "__dict__")
    assert _values(a) == before


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_keyword_construction(name):
    a = SAMPLES[name][0]()
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is type(a) and back == a
    cls = type(a)
    assert cls(**dict(zip(cls.__slots__, _values(a)))) == a
    assert cls(*_values(a)) == a
    assert cls._of(*_values(a)) == a


def test_defaults():
    assert Budget() == Budget(100_000_000, None, Mode.EXHAUSTIVE)
    assert Budget(mode=Mode.BACKTRACKING).max_nodes == 100_000_000
    w = Witness(S, MONO)
    assert DecideResult(Status.YES, w, 7, 0.25) == DecideResult(Status.YES, w, 7, 0.25, detail="")
    assert DecideResult(Status.NO, None, 0, 0.0).detail == ""
    assert Generated(INST) == Generated(INST, None) == Generated(instance=INST)
    assert Generated(INST).witness is None
    assert GenSpec(F3, 1, 2, Tag.PCE, Planted.YES, 0).profile is None
    cert = ReductionCert(F3, Tag.LCE, 0, 0, 0)
    assert (cert.journal, cert.reject_reason, cert.degenerate) == (None, None, False)
    assert ReductionCert(F3, Tag.SPCE, 0, 0, 0, reject_reason=RejectReason.RANK_MISMATCH).rejected


def test_validation_errors():
    with pytest.raises(DimMismatch, match=re.escape("not a bijection on [0,3)")):
        Perm((0, 0, 2))
    with pytest.raises(ValueError, match="diagonal entry 0 must be a non-zero element"):
        Mono(F3, Perm((1, 0)), (1, 0))
    with pytest.raises(DimMismatch, match="diagonal length differs from permutation size"):
        Mono(F3, Perm((1, 0)), (1,))
    with pytest.raises(ValueError, match="time_limit must be a non-negative number"):
        Budget(time_limit=math.nan)
    with pytest.raises(ValueError, match="max_nodes must be at least 1"):
        Budget(0)
    for bad in (math.nan, 2.5, math.inf):
        with pytest.raises(ValueError, match="max_nodes must be an integer"):
            Budget(max_nodes=bad)
    with pytest.raises(ValueError, match="multiplicity profile must sum to n"):
        GenSpec(F3, 2, 4, Tag.PCE, Planted.YES, 0, (2, 1))
    with pytest.raises(ValueError, match="multiplicity counts must be positive"):
        GenSpec(F3, 2, 4, Tag.PCE, Planted.YES, 0, (4, 0))
    with pytest.raises(ValueError, match="full row rank needs at least k distinct columns"):
        GenSpec(F3, 2, 4, Tag.PCE, Planted.YES, 0, (4,))
    with pytest.raises(ValueError, match="duplication count must be at least 2"):
        ReductionCert(F3, Tag.LCE, 3, 2, 1)
    with pytest.raises(DimMismatch, match=re.escape("G is 2x3 but H is 2x2")):
        Instance(F3, G, S, Tag.PCE)
