"""Unit tests for the multiple-access channel substrate."""

import pytest

from repro.channel import (
    MultipleAccessChannel,
    NoCollisionDetection,
    VirtualChannelView,
    WithCollisionDetection,
    slot_parity,
)
from repro.types import ChannelParity, Feedback, SlotOutcome


class TestFeedbackModels:
    def test_no_cd_hides_collision_vs_silence(self):
        model = NoCollisionDetection()
        assert model.feedback_for(SlotOutcome.SILENCE) is Feedback.NO_SUCCESS
        assert model.feedback_for(SlotOutcome.COLLISION) is Feedback.NO_SUCCESS
        assert model.feedback_for(SlotOutcome.SUCCESS) is Feedback.SUCCESS
        assert model.collision_detection is False

    def test_with_cd_distinguishes(self):
        model = WithCollisionDetection()
        assert model.feedback_for(SlotOutcome.SILENCE) is Feedback.SILENCE
        assert model.feedback_for(SlotOutcome.COLLISION) is Feedback.COLLISION
        assert model.feedback_for(SlotOutcome.SUCCESS) is Feedback.SUCCESS
        assert model.collision_detection is True


class TestMultipleAccessChannel:
    def test_single_broadcaster_succeeds(self):
        channel = MultipleAccessChannel()
        outcome, winner, feedback = channel.resolve([42])
        assert outcome is SlotOutcome.SUCCESS
        assert winner == 42
        assert feedback is Feedback.SUCCESS

    def test_empty_slot_is_silence(self):
        channel = MultipleAccessChannel()
        outcome, winner, feedback = channel.resolve([])
        assert outcome is SlotOutcome.SILENCE
        assert winner is None
        assert feedback is Feedback.NO_SUCCESS

    def test_two_broadcasters_collide(self):
        channel = MultipleAccessChannel()
        outcome, winner, feedback = channel.resolve([1, 2])
        assert outcome is SlotOutcome.COLLISION
        assert winner is None
        assert feedback is Feedback.NO_SUCCESS

    def test_jamming_overrides_single_broadcaster(self):
        channel = MultipleAccessChannel()
        outcome, winner, feedback = channel.resolve([7], jammed=True)
        assert outcome is SlotOutcome.COLLISION
        assert winner is None
        assert feedback is Feedback.NO_SUCCESS

    def test_jamming_an_empty_slot_still_collides(self):
        channel = MultipleAccessChannel()
        outcome, _, _ = channel.resolve([], jammed=True)
        assert outcome is SlotOutcome.COLLISION

    def test_collision_detection_feedback(self):
        channel = MultipleAccessChannel(WithCollisionDetection())
        _, _, silence = channel.resolve([])
        _, _, collision = channel.resolve([1, 2])
        assert silence is Feedback.SILENCE
        assert collision is Feedback.COLLISION
        assert channel.collision_detection


class TestVirtualChannelView:
    def test_slot_parity_helper(self):
        assert slot_parity(1) is ChannelParity.ODD
        assert slot_parity(2) is ChannelParity.EVEN
        with pytest.raises(ValueError):
            slot_parity(0)

    def test_contains_same_parity(self):
        view = VirtualChannelView(anchor_slot=5, same_parity=True)
        assert view.contains(5)
        assert view.contains(7)
        assert not view.contains(6)
        assert not view.contains(3)  # before the anchor

    def test_contains_opposite_parity(self):
        view = VirtualChannelView(anchor_slot=5, same_parity=False)
        assert view.parity is ChannelParity.EVEN
        assert view.contains(6)
        assert not view.contains(5)

    def test_local_index_counts_channel_slots(self):
        view = VirtualChannelView(anchor_slot=5, same_parity=True)
        assert view.local_index(5) == 1
        assert view.local_index(7) == 2
        assert view.local_index(15) == 6

    def test_local_index_rejects_foreign_slots(self):
        view = VirtualChannelView(anchor_slot=5, same_parity=True)
        with pytest.raises(ValueError):
            view.local_index(6)
        with pytest.raises(ValueError):
            view.local_index(3)

    def test_first_slot(self):
        assert VirtualChannelView(5, True).first_slot() == 5
        assert VirtualChannelView(5, False).first_slot() == 6

    def test_opposite_swaps_parity(self):
        view = VirtualChannelView(anchor_slot=8, same_parity=True)
        assert view.opposite().parity is view.parity.other()
        assert view.opposite().anchor_slot == view.anchor_slot

    def test_invalid_anchor_rejected(self):
        with pytest.raises(ValueError):
            VirtualChannelView(anchor_slot=0)
