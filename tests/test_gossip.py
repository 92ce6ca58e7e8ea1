"""Simulation._gossip against a naive reference.

In a round each key reaches one peer: a worker sends its update to one
validator, a validator each vote to one miner. The reference delivers each
message to its peer, verifying it, and relays each kept message to every
other peer one by one, drawing one link delay per relay. The simulator's
hop draws each relaying peer's delays in one array; both must keep the same
messages, see every peer ready at the same time and leave the network
generator in the same state.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from conftest import TINY_DATASET
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfl.errors import InvariantViolation
from vbfl.config import NetworkConfig, SimConfig, TrainSpec
from vbfl.orchestrator import Simulation
from vbfl.protocol import (
    WorkerTransaction,
    sign_worker_tx,
    verify_worker_tx,
    worker_tx_signing_bytes,
)

N_PEERS = 5
N_SENDERS = 10


@functools.lru_cache(maxsize=None)
def _sim() -> Simulation:
    """One HMAC simulation whose signer and network the examples use."""
    return Simulation(
        SimConfig(
            rounds=1, dataset=TINY_DATASET, arch="softmax",
            train=TrainSpec(epochs=1, learning_rate=0.05, batch_size=10),
            signature_scheme="hmac",
        )
    )


def naive_gossip(sim, inbox, key, verify, peers, net_rng):
    """Deliver and verify, then relay with one draw per relay."""
    direct = {
        p: [(msg, payload, at)
            for msg, payload, at in sorted(inbox[p], key=lambda item: key(item[0]))
            if verify(msg, sim.signer, payload)]
        for p in peers
    }
    held = {p: {key(msg): (msg, payload, at) for msg, payload, at in direct[p]} for p in peers}
    for p in peers:
        for msg, payload, at in direct[p]:
            for other in peers:
                if other != p:
                    delay = sim.config.network.link_delay(net_rng, 1)[0]
                    held[other][key(msg)] = (msg, payload, at + delay)
    return (
        {p: [held[p][k][:2] for k in sorted(held[p])] for p in peers},
        {p: max((at for _, _, at in held[p].values()), default=0.0) for p in peers},
    )


def signed_tx(sim, worker, variant=0, signed_by=None):
    """A worker transaction, its signing bytes and those bytes tampered with;
    signed under signed_by's key when given (a forgery)."""
    tx = WorkerTransaction(
        round=1, worker=worker, update=sim.g0, expected_reward=variant,
        epochs=1, train_size=1,
    )
    payload = worker_tx_signing_bytes(tx)
    tampered = worker_tx_signing_bytes(dataclasses.replace(tx, train_size=2))
    signer = dataclasses.replace(tx, worker=signed_by) if signed_by else tx
    signature = sign_worker_tx(signer, sim.signer, payload).signature
    return dataclasses.replace(tx, signature=signature), payload, tampered


_message = st.tuples(
    st.integers(0, N_SENDERS - 1),  # sender, so the key: each sends once
    st.integers(0, 3),  # content variant
    st.integers(0, N_PEERS - 1),  # receiving peer
    st.sampled_from([0.0, 0.25, 1.0, 2.5]),  # arrival
    st.booleans(),  # bytes tampered in transit
)


@settings(max_examples=150, deadline=None)
@given(
    messages=st.lists(_message, max_size=N_SENDERS, unique_by=lambda m: m[0]),
    forged=st.integers(0, N_SENDERS - 1),
    n_peers=st.integers(1, N_PEERS),
    delay=st.sampled_from([0.0, 0.5, 1.0]),
    jitter=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    seed=st.integers(0, 2**16),
)
def test_gossip_matches_naive_reference(messages, forged, n_peers, delay, jitter, seed):
    sim = _sim()
    sim.config = dataclasses.replace(sim.config, network=NetworkConfig(delay, jitter))
    ids = [d.id for d in sim.devices]
    peers, senders = ids[:n_peers], ids[N_PEERS:N_PEERS + N_SENDERS]
    inbox = {p: [] for p in peers}
    sent = []
    for sender, variant, peer, at, in_transit in messages:
        # The forged message carries a signature under another device's key.
        tx, payload, tampered = signed_tx(
            sim, senders[sender], variant, ids[-1] if sender == forged else None
        )
        if peer < n_peers:
            inbox[peers[peer]].append((tx, tampered if in_transit else payload, at))
            sent.append(tx)

    verified = Counter()

    def counting_verify(msg, signer, payload):
        verified[id(msg)] += 1
        return verify_worker_tx(msg, signer, payload)

    def key(tx):
        return tx.worker

    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got, ready = sim._gossip(inbox, key, counting_verify, peers, rng_got)
    want, want_ready = naive_gossip(sim, inbox, key, verify_worker_tx, peers, rng_want)
    for p in peers:
        # Every peer holds every message the hop kept.
        assert [(id(msg), id(payload)) for msg, payload in got] == [
            (id(msg), id(payload)) for msg, payload in want[p]
        ]
    assert all(payload == worker_tx_signing_bytes(msg) for msg, payload in got)
    assert ready == want_ready
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    assert verified == Counter(id(tx) for tx in sent)
    assert not any(msg.worker == senders[forged] for msg, _ in got)


@pytest.mark.parametrize("receivers", [(0, 0), (0, 1)], ids=["one-peer", "two-peers"])
def test_a_key_sent_twice_is_an_invariant_violation(receivers):
    sim = _sim()
    ids = [d.id for d in sim.devices]
    peers = ids[:2]
    inbox = {p: [] for p in peers}
    for variant, peer in enumerate(receivers):
        tx, payload, _ = signed_tx(sim, ids[N_PEERS], variant)
        inbox[peers[peer]].append((tx, payload, 0.0))
    with pytest.raises(InvariantViolation, match="sent twice"):
        sim._gossip(inbox, lambda tx: tx.worker, verify_worker_tx, peers,
                    np.random.default_rng(0))
