"""The multiple-access channel: slot resolution and feedback generation."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from ..types import Feedback, NodeId, SlotOutcome
from .feedback import FeedbackModel, NoCollisionDetection

__all__ = ["MultipleAccessChannel"]


class MultipleAccessChannel:
    """Resolves slots of a synchronous multiple-access channel.

    A slot succeeds if and only if exactly one node broadcasts and the slot is
    not jammed.  A jammed slot always produces a collision outcome regardless
    of the number of broadcasters (including zero), per the paper's jamming
    model.  The channel is stateless; all protocol and adversary state lives
    elsewhere, and each run's totals live in its
    :class:`~repro.types.SimulationSummary`.
    """

    def __init__(self, feedback_model: Optional[FeedbackModel] = None) -> None:
        self._feedback_model = feedback_model or NoCollisionDetection()

    @property
    def feedback_model(self) -> FeedbackModel:
        return self._feedback_model

    @property
    def collision_detection(self) -> bool:
        return self._feedback_model.collision_detection

    def resolve(
        self,
        broadcasters: Iterable[NodeId],
        jammed: bool = False,
    ) -> Tuple[SlotOutcome, Optional[NodeId], Feedback]:
        """Resolve one slot.

        Parameters
        ----------
        broadcasters:
            Ids of the nodes broadcasting in the slot.
        jammed:
            Whether the adversary jams the slot.

        Returns
        -------
        (outcome, successful_node, feedback):
            The physical outcome, the id of the node whose message was
            delivered (or ``None``) and the feedback heard by every listener.
        """
        senders: Sequence[NodeId] = tuple(broadcasters)
        if jammed:
            outcome = SlotOutcome.COLLISION
            winner: Optional[NodeId] = None
        elif len(senders) == 1:
            outcome = SlotOutcome.SUCCESS
            winner = senders[0]
        elif len(senders) == 0:
            outcome = SlotOutcome.SILENCE
            winner = None
        else:
            outcome = SlotOutcome.COLLISION
            winner = None
        feedback = self._feedback_model.feedback_for(outcome)
        return outcome, winner, feedback
