"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def payload_log():
    """``payload_log(trainer)`` returns a list that each of the trainer's
    ledger calls then extends, in call order, by one (direction, kind,
    client, nbytes, step) tuple per client id, where step is
    ``trainer.steps`` at the call: the order and round that the ledger's
    byte counters do not keep."""

    def attach(trainer):
        payloads, log = [], trainer._log

        def record_each(direction, kind, client_ids, nbytes):
            payloads.extend((direction, kind, cid, nbytes, trainer.steps) for cid in client_ids)
            log(direction, kind, client_ids, nbytes)

        trainer._log = record_each
        return payloads

    return attach
