"""Property-based tests for the channel substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import MultipleAccessChannel, NoCollisionDetection, VirtualChannelView, WithCollisionDetection
from repro.types import Feedback, SlotOutcome

node_ids = st.lists(st.integers(min_value=0, max_value=10_000), max_size=20)


class TestChannelProperties:
    @given(broadcasters=node_ids, jammed=st.booleans())
    def test_success_iff_single_sender_and_not_jammed(self, broadcasters, jammed):
        channel = MultipleAccessChannel()
        outcome, winner, feedback = channel.resolve(broadcasters, jammed=jammed)
        if len(broadcasters) == 1 and not jammed:
            assert outcome is SlotOutcome.SUCCESS
            assert winner == broadcasters[0]
            assert feedback is Feedback.SUCCESS
        else:
            assert outcome is not SlotOutcome.SUCCESS
            assert winner is None
            assert feedback is not Feedback.SUCCESS

    @given(broadcasters=node_ids, jammed=st.booleans())
    def test_no_cd_feedback_is_binary(self, broadcasters, jammed):
        channel = MultipleAccessChannel(NoCollisionDetection())
        _, _, feedback = channel.resolve(broadcasters, jammed=jammed)
        assert feedback in (Feedback.SUCCESS, Feedback.NO_SUCCESS)

    @given(broadcasters=node_ids, jammed=st.booleans())
    def test_cd_feedback_matches_outcome(self, broadcasters, jammed):
        channel = MultipleAccessChannel(WithCollisionDetection())
        outcome, _, feedback = channel.resolve(broadcasters, jammed=jammed)
        mapping = {
            SlotOutcome.SUCCESS: Feedback.SUCCESS,
            SlotOutcome.SILENCE: Feedback.SILENCE,
            SlotOutcome.COLLISION: Feedback.COLLISION,
        }
        assert feedback is mapping[outcome]


class TestVirtualChannelProperties:
    @given(anchor=st.integers(min_value=1, max_value=10_000), same=st.booleans(),
           offset=st.integers(min_value=0, max_value=2_000))
    def test_local_index_round_trip(self, anchor, same, offset):
        view = VirtualChannelView(anchor_slot=anchor, same_parity=same)
        slot = view.first_slot() + 2 * offset
        assert view.contains(slot)
        assert view.local_index(slot) == offset + 1

    @given(anchor=st.integers(min_value=1, max_value=10_000), same=st.booleans(),
           slot=st.integers(min_value=1, max_value=30_000))
    def test_channel_partition(self, anchor, same, slot):
        """Every slot at or after the first slot belongs to exactly one of the two channels."""
        view = VirtualChannelView(anchor_slot=anchor, same_parity=same)
        other = view.opposite()
        if slot >= anchor + 1:
            assert view.contains(slot) != other.contains(slot)

    @given(anchor=st.integers(min_value=1, max_value=10_000), same=st.booleans())
    def test_opposite_is_involution(self, anchor, same):
        view = VirtualChannelView(anchor_slot=anchor, same_parity=same)
        assert view.opposite().opposite() == view
