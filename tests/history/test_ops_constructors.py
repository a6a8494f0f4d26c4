"""The hand-written op initializers against the generated ones they replaced.

``tests/ops_reference.py`` keeps the earlier ``MicroOp``, ``Op`` and
``Transaction`` verbatim (generated ``__init__`` plus ``__post_init__``).
Objects built both ways from the same arguments must agree in every
observable respect: fields, equality, hash, repr, pickled state,
``dataclasses.replace``, frozenness and the errors they raise.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history.ops import (
    APPEND,
    MOP_FUNCTIONS,
    MicroOp,
    Op,
    OpType,
    Transaction,
)
from tests import ops_reference as ref

PAIRS = [(MicroOp, ref.MicroOp), (Op, ref.Op), (Transaction, ref.Transaction)]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.text(max_size=3),
)
keys_and_values = st.one_of(
    scalars, st.tuples(scalars, scalars), st.frozensets(scalars, max_size=3)
)
functions = st.sampled_from(sorted(MOP_FUNCTIONS))
mop_args = st.tuples(functions, keys_and_values, keys_and_values)
optional_ints = st.one_of(st.none(), st.integers(-5, 10**6))


def fields_of(obj):
    """Field values, with nested micro-ops as plain tuples."""
    out = []
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]):
            value = tuple(map(fields_of, value))
        out.append(value)
    return tuple(out)


def assert_same(new, old):
    assert fields_of(new) == fields_of(old)
    assert hash(new) == hash(old)
    assert repr(new) == repr(old)
    assert new == new.__class__(*new.__getstate__())
    assert type(new.__getstate__()) is type(old.__getstate__())
    back = pickle.loads(pickle.dumps(new, pickle.HIGHEST_PROTOCOL))
    assert back == new and hash(back) == hash(new)


def build(classes, mops, op_type, index, process, ts):
    """A micro-op tuple, an op and a transaction from the same arguments."""
    cls_mop, cls_op, cls_txn = classes
    micro = tuple(cls_mop(*args) for args in mops)
    op = cls_op(index, op_type, process, list(micro), ts)
    completion = OpType.INFO if op_type is OpType.INVOKE else op_type
    complete, commit = (None, None) if ts is None else (index + 1, ts + 2)
    txn = cls_txn(index, process, completion, micro, index, complete, ts, commit)
    return micro, op, txn


@given(
    st.lists(mop_args, max_size=4),
    st.sampled_from(list(OpType)),
    st.integers(0, 10**6),
    st.integers(0, 50),
    optional_ints,
)
@settings(max_examples=300, deadline=None)
def test_built_objects_match_the_generated_forms(mops, op_type, index, process, ts):
    args = (mops, op_type, index, process, ts)
    new = build((MicroOp, Op, Transaction), *args)
    old = build((ref.MicroOp, ref.Op, ref.Transaction), *args)
    for new_mop, old_mop in zip(new[0], old[0]):
        assert_same(new_mop, old_mop)
    assert_same(new[1], old[1])
    assert_same(new[2], old[2])


@given(st.lists(mop_args, min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_equality_agrees_with_the_generated_forms(pair):
    (a, b), (old_a, old_b) = (
        [MicroOp(*args) for args in pair],
        [ref.MicroOp(*args) for args in pair],
    )
    assert (a == b) == (old_a == old_b)
    same_ops = Op(0, OpType.OK, 1, (a,)) == Op(0, OpType.OK, 1, (b,))
    assert same_ops == (old_a == old_b)


@pytest.mark.parametrize("new, old", PAIRS, ids=lambda c: c.__name__)
def test_class_shape_is_unchanged(new, old):
    def shape(cls):
        return [(f.name, f.default, f.init) for f in dataclasses.fields(cls)]

    assert shape(new) == shape(old)
    assert new.__slots__ == old.__slots__
    assert new.__match_args__ == old.__match_args__


def test_keywords_and_defaults():
    assert MicroOp(fn="r", key="x") == MicroOp("r", "x", None)
    op = Op(index=3, type=OpType.INVOKE, process=1, value=None)
    assert op.ts is None and op.value is None
    txn = Transaction(id=1, process=0, type=OpType.OK, mops=(), invoke_index=1)
    assert (txn.complete_index, txn.start_ts, txn.commit_ts) == (None,) * 3


def test_replace_matches_the_generated_forms():
    mop, old_mop = MicroOp("w", "x", 1), ref.MicroOp("w", "x", 1)
    assert_same(
        dataclasses.replace(mop, value=2), dataclasses.replace(old_mop, value=2)
    )
    op = Op(0, OpType.INVOKE, 1, [mop])
    old_op = ref.Op(0, OpType.INVOKE, 1, [old_mop])
    assert_same(
        dataclasses.replace(op, index=7), dataclasses.replace(old_op, index=7)
    )
    assert_same(
        dataclasses.replace(op, value=[mop, mop]),
        dataclasses.replace(old_op, value=[old_mop, old_mop]),
    )
    txn = Transaction(4, 1, OpType.OK, (mop,), 4, 5)
    old_txn = ref.Transaction(4, 1, OpType.OK, (old_mop,), 4, 5)
    assert_same(
        dataclasses.replace(txn, type=OpType.INFO, complete_index=None),
        dataclasses.replace(old_txn, type=OpType.INFO, complete_index=None),
    )
    with pytest.raises(ValueError) as new_error:
        dataclasses.replace(txn, type=OpType.INVOKE)
    with pytest.raises(ValueError) as old_error:
        dataclasses.replace(old_txn, type=OpType.INVOKE)
    assert str(new_error.value) == str(old_error.value)


@pytest.mark.parametrize("new, old", PAIRS, ids=lambda c: c.__name__)
def test_assignment_still_refused(new, old):
    args = {
        MicroOp: ("r", "x"),
        Op: (0, OpType.INVOKE, 1, ()),
        Transaction: (0, 1, OpType.OK, (), 0),
    }[new]
    obj = new(*args)
    for field in dataclasses.fields(new):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field.name)


def test_op_value_coercion():
    mop = MicroOp("r", "x")
    assert Op(0, OpType.INVOKE, 1, [mop]).value == (mop,)
    assert Op(0, OpType.INVOKE, 1, iter([mop])).value == (mop,)
    assert Op(0, OpType.INVOKE, 1, None).value is None
    kept = (mop,)
    assert Op(0, OpType.INVOKE, 1, kept).value is kept


def test_transaction_refuses_invoke():
    with pytest.raises(ValueError) as new_error:
        Transaction(0, 1, OpType.INVOKE, (), 0)
    with pytest.raises(ValueError) as old_error:
        ref.Transaction(0, 1, OpType.INVOKE, (), 0)
    assert str(new_error.value) == str(old_error.value)


@pytest.mark.parametrize("fn", ["cas", "", "R", 1, None, ("r",)])
def test_unknown_fn_error_unchanged(fn):
    with pytest.raises(ValueError) as new_error:
        MicroOp(fn, "x", 1)
    with pytest.raises(ValueError) as old_error:
        ref.MicroOp(fn, "x", 1)
    assert str(new_error.value) == str(old_error.value)


def test_unhashable_fn_error_unchanged():
    with pytest.raises(TypeError) as new_error:
        MicroOp(["r"], "x", 1)
    with pytest.raises(TypeError) as old_error:
        ref.MicroOp(["r"], "x", 1)
    assert str(new_error.value) == str(old_error.value)


def test_fn_is_interned():
    spelled = "".join(["app", "end"])
    assert spelled is not APPEND
    assert MicroOp(spelled, "x", 1).fn is APPEND
