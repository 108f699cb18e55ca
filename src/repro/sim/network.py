"""Uplink/downlink byte accounting.

Table 2 and Figs 4/5/7(b) are generated from this meter: every model
transfer (client→server upload, server→client download) is charged at its
codec wire size at the virtual time it happens.
"""

from __future__ import annotations

__all__ = ["NetworkMeter"]


class NetworkMeter:
    """Cumulative uplink/downlink byte counters with an event log.

    Under a finite-bandwidth link the meter additionally accumulates the
    virtual seconds spent moving payloads (``transfer_seconds``), so
    bandwidth-drift scenarios surface in a time-axis statistic and not
    only as longer response latencies. Transfer time is charged per
    *attempted* round trip at launch — like the downlink byte charge, it
    includes clients that later churn or drop mid-round (they consumed
    link time even though, unlike the uplink byte counter, no upload ever
    reached the server).
    """

    def __init__(self):
        self.uplink_bytes = 0
        self.downlink_bytes = 0
        self.uplink_messages = 0
        self.downlink_messages = 0
        self.transfer_seconds = 0.0

    @property
    def total_bytes(self) -> int:
        return self.uplink_bytes + self.downlink_bytes

    def record_upload(self, nbytes: int) -> None:
        """Charge one client→server transfer."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.uplink_bytes += int(nbytes)
        self.uplink_messages += 1

    def record_download(self, nbytes: int) -> None:
        """Charge one server→client transfer."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.downlink_bytes += int(nbytes)
        self.downlink_messages += 1

    def record_transfer(self, seconds: float) -> None:
        """Charge virtual seconds of finite-bandwidth transfer time."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.transfer_seconds += float(seconds)

    def snapshot(self) -> dict:
        return {
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "total_bytes": self.total_bytes,
            "uplink_messages": self.uplink_messages,
            "downlink_messages": self.downlink_messages,
            "transfer_seconds": self.transfer_seconds,
        }
