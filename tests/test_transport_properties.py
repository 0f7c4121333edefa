"""Property tests (hypothesis) for the transport-runtime primitives.

Random interleavings over the credit policies (transport/credit.py) and
the buffer bookkeeping (transport/rings.py, the GETFREE free list), executed under the
runtime sanitizer: whatever order posts, completions and recycles land
in, the protocol invariants must hold and the sanitizer must stay quiet.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.transport.connections import PeerConnection
from repro.core.transport.credit import RingBoard, grant_credit
from repro.core.transport.rings import PendingTable, RingCursor
from repro.memory import BufferPool
from repro.sim import Notify, Queue, Simulator
from repro.verbs import Opcode, SendWR

from tests.test_sanitizer_faults import rc_pair, sanitized_cluster


class TestCreditPolicyProperties:
    @given(grants=st.lists(st.integers(0, 100), max_size=30))
    def test_credit_is_the_running_max_of_grants(self, grants):
        """Absolute-credit semantics (§4.4.1-2): stale or duplicated
        grants are superseded; credit never decreases."""
        sim = Simulator()
        conn = PeerConnection(1)
        conn.notify = Notify(sim)
        for value in grants:
            conn.notify.wait()  # a stalled sender, parked on the notify
            before = conn.credit
            grant_credit(conn, value)
            assert conn.credit == max(before, value)
            if value > before:
                assert not conn.notify._waiters, "increase must wake senders"
            else:
                assert len(conn.notify._waiters) == 1, \
                    "stale grant must not wake senders"
                conn.notify._waiters.clear()
        assert conn.credit == max([0] + grants)


class TestRingCursorProperties:
    @given(base=st.integers(0, 2 ** 20), cap=st.integers(1, 64),
           n=st.integers(1, 200))
    def test_slots_cycle_through_the_ring_in_order(self, base, cap, n):
        cursor = RingCursor(base, cap)
        slots = [cursor.next_slot() for _ in range(n)]
        assert slots == [base + (i % cap) * 8 for i in range(n)]
        assert cursor.produced == n
        assert all(base <= s < base + cap * 8 for s in slots)


class TestPendingTableProperties:
    @given(counts=st.dictionaries(st.integers(0, 20), st.integers(1, 5),
                                  min_size=1, max_size=8))
    def test_last_completion_and_only_it_releases_a_key(self, counts):
        table = PendingTable()
        for key, count in counts.items():
            table.add(key, count)
        assert len(table) == len(counts)
        for key, count in counts.items():
            for i in range(count):
                released = table.complete(key)
                assert released == (i == count - 1)
                assert (key in table) == (not released)
        assert not table
        assert len(table) == 0


class TestBufferRingUnderSanitizer:
    @given(ops=st.lists(st.sampled_from(["post", "drain"]), max_size=24))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_post_drain_interleavings_stay_clean(self, ops):
        """GETFREE -> fill -> post -> poll -> RELEASE in any interleaving
        conserves buffers and never trips a sanitizer rule.

        The ring is what a SEND endpoint provisions: a registered
        BufferPool whose buffers feed a FIFO free Queue, recycled by
        ``reset()`` + ``put`` once their completion is polled."""
        sim = Simulator()
        _, ctxs, san = sanitized_cluster(sim)
        qps, cqs = rc_pair(ctxs)
        pool = BufferPool(ctxs[0], 4, 256)
        free = Queue(sim)
        for buf in pool.buffers:
            free.put(buf)
        rpool = BufferPool(ctxs[1], len(ops) + 1, 256)

        in_flight = 0
        recv_idx = 0

        def drain():
            nonlocal in_flight
            sim.run()
            for wc in cqs[0].poll():
                wc.wr_id.reset()  # RELEASE runs under the sanitizer
                free.put(wc.wr_id)
                in_flight -= 1
            cqs[1].poll()

        for op in ops:
            if op != "post":
                drain()
                continue
            ok, buf = free.try_get()  # GETFREE
            if not ok:
                continue
            qps[1].post_recv_buffer(rpool.buffers[recv_idx], 256)
            recv_idx += 1
            buf.fill("x" * 8, 64)
            qps[0].post_send(SendWR(wr_id=buf, opcode=Opcode.SEND,
                                    buffer=buf, length=64))
            in_flight += 1
        drain()

        assert in_flight == 0
        left = [free.try_get()[1] for _ in range(len(free))]
        assert sorted(b.addr for b in left) == \
            sorted(b.addr for b in pool.buffers), "buffer leaked or duplicated"
        assert san.violations == []


class TestRingBoardRouting:
    @staticmethod
    def install(keys, cap, min_one=False):
        sim = Simulator()
        _, ctxs, _ = sanitized_cluster(sim)
        seen = []
        ep = SimpleNamespace(ctx=ctxs[1], aux_mrs=[])
        board = sim.run_process(RingBoard.install(
            ep, keys=keys, cap=cap, min_one=min_one,
            on_value=lambda key, value: seen.append((key, value))))
        return board, seen

    @given(keys=st.lists(st.integers(0, 50), min_size=1, max_size=6,
                         unique=True),
           cap=st.integers(1, 5))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_slot_reaches_its_key(self, keys, cap):
        board, seen = self.install(keys, cap)
        expected = []
        for key in keys:
            for slot in range(cap):
                value = 1000 * key + slot + 1
                board.mr.write_u64(board.base_by_key[key] + 8 * slot, value)
                expected.append((key, value))
        assert seen == expected

    def test_spare_ring_reaches_nobody(self):
        board, seen = self.install([], cap=3, min_one=True)
        assert board.base_by_key == {}
        for slot in range(3):
            board.mr.write_u64(board.mr.addr + 8 * slot, 7)
        assert seen == []
