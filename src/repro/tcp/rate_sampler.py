"""Linux-style delivery-rate sampling.

This module reproduces the per-packet ``delivered`` / ``prior_delivered``
bookkeeping that Linux TCP performs (``tcp_rate.c``) and that BBR relies on
for both bandwidth estimation and probe-round clocking.

The mechanism is the heart of the BBR stall found by CC-Fuzz (section 4.1):

* Every transmitted segment is stamped with the connection's ``delivered``
  counter (``prior_delivered``) and the timestamp of the most recent delivery
  (``prior_delivered_time``) at the moment it is sent.
* When a segment is *retransmitted* — including spuriously, after an RTO
  marked still-in-flight segments lost — those stamps are **overwritten**
  with the current values.
* If the SACK for the original transmission then arrives, the rate sample is
  computed against the overwritten stamps: a tiny ``delivered`` delta over an
  interval dominated by the time since the last delivery, which both yields a
  very low bandwidth sample and prematurely ends BBR's probing round (because
  ``prior_delivered`` now exceeds the round's start marker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class SegmentTxState:
    """Per-transmission rate-sampling stamps carried by each segment."""

    sent_time: float
    prior_delivered: int
    prior_delivered_time: float
    first_tx_time: float
    is_retransmit: bool = False


@dataclass(slots=True)
class RateSample:
    """One delivery-rate sample, produced when a segment is (S)ACKed."""

    delivered: int                  #: segments newly delivered by this ACK event
    prior_delivered: int            #: connection ``delivered`` when the segment was sent
    interval: float                 #: sampling interval in seconds
    delivery_rate: float            #: segments per second (0 when the interval is degenerate)
    rtt: Optional[float]            #: RTT measured from this segment (None for retransmitted segments)
    is_retransmit: bool             #: the sampled segment's latest transmission was a retransmission
    ack_time: float                 #: time the ACK was processed
    send_elapsed: float = 0.0       #: send-side interval component
    ack_elapsed: float = 0.0        #: ack-side interval component


class DeliveryRateEstimator:
    """Connection-wide delivery accounting (a faithful subset of tcp_rate.c)."""

    def __init__(self) -> None:
        self.delivered = 0
        self.delivered_time = 0.0
        self.first_tx_time = 0.0

    def on_segment_sent(self, now: float, packets_in_flight: int, is_retransmit: bool) -> SegmentTxState:
        """Stamp a segment at transmission time.

        ``packets_in_flight`` is the pipe *before* this transmission; when the
        pipe is empty the send "window" restarts, so ``first_tx_time`` resets
        (mirroring ``tcp_rate_skb_sent``).
        """
        if packets_in_flight == 0:
            self.first_tx_time = now
            self.delivered_time = now
        return SegmentTxState(
            now, self.delivered, self.delivered_time, self.first_tx_time, is_retransmit
        )

    def on_segment_delivered(
        self,
        now: float,
        tx_state: SegmentTxState,
        newly_delivered: int,
    ) -> RateSample:
        """Account ``newly_delivered`` segments and build a rate sample.

        The sample interval follows Linux: the larger of the send-side
        interval (time spent transmitting the sampled window) and the ACK-side
        interval (time between the previous delivery and this one).  Using the
        maximum avoids over-estimating bandwidth when ACKs are compressed, and
        it is also what makes post-RTO spurious-retransmission samples *small*
        rather than large.
        """
        if newly_delivered < 0:
            raise ValueError("newly_delivered must be non-negative")
        self.delivered += newly_delivered
        self.delivered_time = now

        sent_time = tx_state.sent_time
        send_elapsed = sent_time - tx_state.first_tx_time
        if send_elapsed < 0.0:
            send_elapsed = 0.0
        ack_elapsed = now - tx_state.prior_delivered_time
        if ack_elapsed < 0.0:
            ack_elapsed = 0.0
        interval = send_elapsed if send_elapsed > ack_elapsed else ack_elapsed
        # Linux tcp_rate_skb_delivered(): the send time of the most recently
        # delivered packet becomes the start of the next sample's send window.
        if sent_time > self.first_tx_time:
            self.first_tx_time = sent_time
        delivered_delta = self.delivered - tx_state.prior_delivered
        rate = delivered_delta / interval if interval > 1e-9 else 0.0
        if tx_state.is_retransmit:
            rtt = None
        else:
            rtt = now - sent_time
            if rtt < 1e-9:
                rtt = 1e-9
        return RateSample(
            delivered_delta,
            tx_state.prior_delivered,
            interval,
            rate,
            rtt,
            tx_state.is_retransmit,
            now,
            send_elapsed,
            ack_elapsed,
        )
