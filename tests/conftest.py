"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import splitsim


@pytest.fixture
def package_env():
    """The environment for a subprocess that must import the ``splitsim``
    these tests import: ``PYTHONPATH`` leads with the directory it came from,
    so the subprocess finds it in a checkout where it is not installed."""
    src = str(Path(splitsim.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


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
