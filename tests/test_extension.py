"""Unit tests of :class:`repro.datamodel.extension.CreationOrder`.

A class extension keeps its OIDs in creation (serial) order in bounded
blocks.  Every size here sits on or around a block boundary (blocks of
four), and every position is removed and restored, so appends, removes
that empty a block and restores into a neighbouring block are all met.
"""

from __future__ import annotations

import pytest

from repro.datamodel.extension import CreationOrder
from repro.datamodel.oid import OID

BLOCK = 4
SIZES = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1,
         3 * BLOCK + 1)
NONEMPTY = SIZES[1:]


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(CreationOrder, "BLOCK", BLOCK)


def oids(size: int) -> list[OID]:
    """*size* OIDs of class C with odd serials, so that an even serial lies
    between two members."""
    return [OID("C", 2 * n + 1) for n in range(size)]


def sequence_of(members: list[OID]) -> CreationOrder:
    sequence = CreationOrder()
    for oid in members:
        sequence.append(oid)
    return sequence


def block_sizes(sequence: CreationOrder) -> list[int]:
    return [len(block) for block in sequence._blocks]


@pytest.mark.parametrize("size", SIZES)
def test_iterates_in_append_order(size):
    sequence = sequence_of(oids(size))
    assert list(sequence) == oids(size)
    assert len(sequence) == size
    # appending fills one block before it starts the next
    assert block_sizes(sequence) == [BLOCK] * (size // BLOCK) + (
        [size % BLOCK] if size % BLOCK else [])


@pytest.mark.parametrize("size", NONEMPTY)
def test_removing_any_member_keeps_the_rest_in_order(size):
    members = oids(size)
    for position, victim in enumerate(members):
        sequence = sequence_of(members)
        sequence.remove(victim)
        assert list(sequence) == members[:position] + members[position + 1:]
        assert len(sequence) == size - 1
        assert all(0 < length <= BLOCK for length in block_sizes(sequence))


@pytest.mark.parametrize("size", NONEMPTY)
def test_restore_undoes_any_remove(size):
    members = oids(size)
    for victim in members:
        sequence = sequence_of(members)
        sequence.remove(victim)
        sequence.restore(victim)
        assert list(sequence) == members
        assert len(sequence) == size


@pytest.mark.parametrize("size", SIZES)
def test_emptied_and_refilled_in_reverse_by_restore(size):
    """Removing every member drops every block; restoring them last-first
    (the order an aborted commit scope undoes its deletes in) rebuilds the
    creation order."""
    members = oids(size)
    sequence = sequence_of(members)
    removed = members[1::2] + members[0::2]
    for oid in removed:
        sequence.remove(oid)
    assert list(sequence) == [] and len(sequence) == 0
    assert sequence._blocks == []
    for oid in reversed(removed):
        sequence.restore(oid)
    assert list(sequence) == members
    assert len(sequence) == size


@pytest.mark.parametrize("make_sequence,stranger", [
    (lambda: sequence_of([]), OID("C", 1)),
    (lambda: sequence_of(oids(9)), OID("C", 0)),
    (lambda: sequence_of(oids(9)), OID("C", 8)),
    (lambda: sequence_of(oids(9)), OID("C", 99)),
    (lambda: sequence_of(oids(9)), OID("D", 5)),
], ids=["empty", "before_first", "between_members", "after_last",
        "same_serial_other_class"])
def test_removing_a_non_member_raises_and_changes_nothing(make_sequence,
                                                          stranger):
    sequence = make_sequence()
    before = list(sequence)
    with pytest.raises(KeyError):
        sequence.remove(stranger)
    assert list(sequence) == before
    assert len(sequence) == len(before)


def test_removing_twice_raises_the_second_time():
    members = oids(BLOCK + 1)
    sequence = sequence_of(members)
    sequence.remove(members[2])
    with pytest.raises(KeyError):
        sequence.remove(members[2])
    assert len(sequence) == BLOCK


def test_appends_after_an_emptied_first_block_stay_in_creation_order():
    members = oids(2 * BLOCK)
    sequence = sequence_of(members)
    for oid in members[:BLOCK]:
        sequence.remove(oid)
    later = [OID("C", 100 + n) for n in range(BLOCK + 1)]
    for oid in later:
        sequence.append(oid)
    assert list(sequence) == members[BLOCK:] + later
    assert len(sequence) == 2 * BLOCK + 1


def test_iteration_copies_the_membership_of_its_moment():
    members = oids(2 * BLOCK + 1)
    sequence = sequence_of(members)
    copied = list(sequence)
    sequence.remove(members[0])
    sequence.append(OID("C", 100))
    assert copied == members
