"""The shared transport runtime beneath the endpoint designs.

The paper's designs differ along two axes only (endpoint count,
transport mechanism); everything else — per-peer connection state, the
credit/FreeArr/ValidArr flow-control machinery, GETFREE/RELEASE buffer
rings, completion dispatch — is common.  This package is that common
runtime, so each design is a thin posting policy:

::

    designs        sr_ud / sr_rc / read_rc / write_rc / mcast / baselines
                        |  (posting policy: what WR to post where)
    transport      registry . connections . credit . rings . dispatch . runtime
                        |  (verbs objects, process fragments)
    verbs          QPs, CQs, MRs, connection manager
                        |  (NIC model, packets)
    fabric         links, switch, loss/reorder injection
                        |  (events, processes)
    sim            discrete-event kernel (integer nanoseconds)

Submodules:

* :mod:`~repro.core.transport.registry` — the endpoint-backend registry
  (kind -> send/receive class pair + transport properties).
* :mod:`~repro.core.transport.connections` — :class:`PeerConnection`
  (one per peer, in the endpoint's ``conns`` dict) and the RC connect
  loops.
* :mod:`~repro.core.transport.credit` — the §4.4 credit schemes as
  policy objects (credit words, credit datagrams, ring boards).
* :mod:`~repro.core.transport.rings` — registration charging,
  pending-buffer refcounts, circular-queue cursors.
* :mod:`~repro.core.transport.dispatch` — the completion-dispatch loop.
* :mod:`~repro.core.transport.runtime` — endpoint base classes wiring
  it all together (the credited two-sided data path lives here).

Import note: :mod:`.runtime` and :mod:`.credit` depend on
:mod:`repro.core.endpoint`, which itself imports :mod:`.rings` — design
modules import them directly (``from repro.core.transport.runtime
import ...``) rather than through this package root, keeping the
package importable while ``endpoint`` is still initialising.
"""

from repro.core.transport.connections import (
    PeerConnection,
    rc_connect_receivers,
    rc_connect_senders,
)
from repro.core.transport.dispatch import CompletionDispatcher
from repro.core.transport.registry import (
    EndpointBackend,
    UnknownEndpointKindError,
    backend,
    register_endpoint_kind,
    registered_kinds,
)
from repro.core.transport.rings import (
    PendingTable,
    RingCursor,
    charge_registration,
    post_ring_write,
)

__all__ = [
    "CompletionDispatcher",
    "EndpointBackend",
    "PeerConnection",
    "PendingTable",
    "RingCursor",
    "UnknownEndpointKindError",
    "backend",
    "charge_registration",
    "post_ring_write",
    "rc_connect_receivers",
    "rc_connect_senders",
    "register_endpoint_kind",
    "registered_kinds",
]
