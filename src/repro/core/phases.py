"""Phase state of the Chen–Jiang–Zheng protocol."""

from __future__ import annotations

import enum

__all__ = ["Phase"]


class Phase(enum.Enum):
    """The three phases a node moves through after arriving.

    * ``SYNCHRONIZE`` (Phase 1): run ``(f/a)``-backoff on the virtual channel
      of the arrival slot's parity until *any* success is heard; the channel
      on which that success occurred becomes the node's data channel.
    * ``WAIT_CONTROL`` (Phase 2): run ``(f/a)``-backoff on the other channel
      (the control channel) until a success is heard *on that channel*; this
      success synchronizes all waiting nodes.
    * ``BATCH`` (Phase 3): run ``h_ctrl``-batch on the control channel and
      ``h_data``-batch on the data channel; a success on the control channel
      ends the batch, swaps the channel roles and restarts Phase 3.
    """

    SYNCHRONIZE = 1
    WAIT_CONTROL = 2
    BATCH = 3
