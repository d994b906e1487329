"""Bridge lifecycle: graceful drain, typed rejection, final checkpoint.

The shutdown contract: commands queued before ``stop()`` run to
completion (outputs delivered), anything later fails *fast* with a
typed :class:`BridgeClosed` — a future must never hang because the
engine thread it was waiting on quietly exited.
"""

import pytest

from repro.engine.tuples import ColumnBatch
from repro.server.bridge import BridgeClosed, EngineBridge, FitSpec
from repro.server.client import PulseClient, ServerError
from repro.server.server import ServerConfig, ServerThread

QUERY = "select * from ticks where x > 0"
FIT = FitSpec(attrs=("x",), key_fields=("sym",))


def tuples(n=8):
    from repro.engine.tuples import StreamTuple

    return [
        StreamTuple({"time": float(i + 1), "sym": "a", "x": float(i + 1)})
        for i in range(n)
    ]


class TestGracefulShutdown:
    def test_queued_commands_drain_before_exit(self):
        bridge = EngineBridge()
        bridge.start()
        bridge.register_query("q", QUERY, FIT)
        bridge.subscribe(1, "q", "continuous", 0.05)
        futures = [
            bridge.ingest(None, "ticks", ColumnBatch.from_rows(tuples(4)))
            for _ in range(5)
        ]
        bridge.stop()
        # Every pre-stop command completed normally: drained, not
        # rejected.
        for future in futures:
            assert future.result(timeout=0)["accepted"] == 4

    def test_submit_after_stop_fails_typed(self):
        bridge = EngineBridge()
        bridge.start()
        bridge.stop()
        future = bridge.ingest(None, "ticks", ColumnBatch.from_rows(tuples(1)))
        with pytest.raises(BridgeClosed):
            future.result(timeout=0)

    def test_restart_after_stop_refused(self):
        bridge = EngineBridge()
        bridge.start()
        bridge.stop()
        with pytest.raises(BridgeClosed):
            bridge.start()

    def test_stop_without_start_rejects_queued(self):
        bridge = EngineBridge()
        future = bridge.flush()  # queued; engine thread never ran
        bridge.stop()
        with pytest.raises(BridgeClosed):
            future.result(timeout=0)

    def test_stop_is_idempotent(self):
        bridge = EngineBridge()
        bridge.start()
        bridge.stop()
        bridge.stop()  # second stop: no thread, no error, no hang

    def test_clean_stop_checkpoints_so_restart_replays_nothing(
        self, tmp_path
    ):
        wal = str(tmp_path)
        bridge = EngineBridge(wal_dir=wal, fsync_every=1)
        bridge.start()
        bridge.register_query("q", QUERY, FIT)
        bridge.ingest(
            None, "ticks", ColumnBatch.from_rows(tuples(6))
        ).result(timeout=10)
        bridge.stop()

        reborn = EngineBridge(wal_dir=wal, fsync_every=1)
        reborn.start()
        report = reborn.recovery_report
        assert report["replayed"] == 0  # the final checkpoint covered it
        assert reborn.ingest_tuples == 6
        reborn.stop()


class TestReconnectSession:
    def test_reconnect_restores_policy_and_session(self):
        with ServerThread(ServerConfig()) as handle:
            client = PulseClient(
                "127.0.0.1",
                handle.port,
                reconnect_attempts=4,
                reconnect_base_s=0.01,
            )
            client.connect(backpressure="shed-newest")
            client.register("q", QUERY, fit=dict(FIT.__dict__))
            # Simulate a dropped connection (both directions torn).
            import socket

            client._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises((ServerError, OSError)):
                client.stats()
            hello = client.reconnect()
            assert hello["type"] == "hello"
            # The pinned policy re-rides the fresh hello, and the new
            # session is fully functional against surviving state.
            assert client._backpressure == "shed-newest"
            assert "q" in client.stats()["engine"]["queries"]
