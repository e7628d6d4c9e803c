"""Raft wire records keep the value semantics of the dataclasses they
replaced: equality and hashing by type and field, and a field-by-field
repr."""

from repro.consensus import AppendReply, InstallSnapshot, LogEntry, VoteReply


def test_records_compare_and_hash_by_type_and_value():
    reply = VoteReply(3, "cn0", True)
    assert reply == VoteReply(term=3, voter="cn0", granted=True, prevote=False)
    assert hash(reply) == hash(VoteReply(3, "cn0", True))
    assert reply != VoteReply(3, "cn0", True, prevote=True)
    # The same field values under another type are not equal.
    assert reply != AppendReply(3, "cn0", True, 0)
    assert repr(reply) == "VoteReply(term=3, voter='cn0', granted=True, prevote=False)"
    assert repr(LogEntry(1, 2, ("noop",))) == "LogEntry(term=1, index=2, command=('noop',))"


def test_snapshot_image_is_left_out_of_equality_and_hashing():
    shipped = InstallSnapshot(2, "cn1", 10, 2, snapshot={"/k": 1})
    same = InstallSnapshot(2, "cn1", 10, 2)
    assert shipped == same and hash(shipped) == hash(same)
    assert shipped != InstallSnapshot(2, "cn1", 11, 2)
