"""Protocol message kinds (for traffic accounting).

Dir1SW is a request/response directory protocol; the message vocabulary below
is the subset needed to account for the traffic the CICO paper talks about:
get requests, data responses, recalls from an exclusive owner, invalidations
(hardware single-pointer or software broadcast), upgrade (write-fault)
messages, writebacks, check-in returns, sharer-count decrements on silent
replacement, and prefetch requests.
"""

from __future__ import annotations

import enum


class MessageKind(enum.Enum):
    GET_S = "get_s"  # read request to directory
    GET_X = "get_x"  # write / exclusive request to directory
    DATA = "data"  # data response (memory or forwarded)
    RECALL = "recall"  # directory asks RW owner for the block
    INV = "inv"  # hardware invalidation to the single pointer
    BCAST_INV = "bcast_inv"  # software-trap broadcast invalidation
    ACK = "ack"  # invalidation / recall acknowledgement
    UPGRADE = "upgrade"  # write-fault: S -> X permission request
    WRITEBACK = "writeback"  # dirty data returned to memory
    CHECKIN = "checkin"  # explicit CICO check_in return message
    DECREMENT = "decrement"  # replacement notice: drop sharer count
    PREFETCH = "prefetch"  # prefetch request
    NACK = "nack"  # transient negative acknowledgement (fault injection)

    # Members are singletons, so identity hashing is exact, and it runs in
    # C where Enum.__hash__ runs Python code on every message.  No output
    # iterates a set of kinds, so hash order never reaches a result.
    __hash__ = object.__hash__
