"""Simulation._gossip against a naive reference.

The reference delivers every copy to every receiver one by one, verifying
each copy it might store and drawing one link delay per relay. The
simulator's hop computes each key once, verifies each (message, signing
bytes) pair once and draws a peer's relay delays in one call; both must
store the same copies with the same arrivals and leave the network
generator in the same state.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import numpy as np
from conftest import TINY_DATASET
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfl.learning import TrainSpec
from vbfl.orchestrator import NetworkConfig, SimConfig, Simulation
from vbfl.protocol import (
    WorkerTransaction,
    sign_worker_tx,
    verify_worker_tx,
    worker_tx_signing_bytes,
)

N_PEERS = 5
N_SENDERS = 4


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
    """Deliver, dedupe, relay: one verify per delivery, one draw per relay."""
    stored = {p: {} for p in peers}

    def deliver(p, msg, payload, at):
        k = key(msg)
        if k not in stored[p] and verify(msg, sim.signer, payload):
            stored[p][k] = (msg, at)

    direct = {p: sorted(inbox[p], key=lambda item: key(item[0])) for p in peers}
    for p in peers:
        for msg, payload, at in direct[p]:
            deliver(p, msg, payload, at)
    for p in peers:
        for msg, payload, at in direct[p]:
            if stored[p].get(key(msg), (None,))[0] is not msg:
                continue
            for other in peers:
                if other != p:
                    delay = sim.config.network.link_delay(p, other, net_rng)
                    deliver(other, msg, payload, at + delay)
    return {p: [stored[p][k] for k in sorted(stored[p])] for p in peers}


_message = st.tuples(
    st.integers(0, N_SENDERS - 1),  # sender: equal senders mean equal keys
    st.integers(0, 3),  # content variant
    st.lists(  # (receiving peer, arrival, bytes tampered in transit) of each copy sent
        st.tuples(
            st.integers(0, N_PEERS - 1), st.sampled_from([0.0, 0.25, 1.0, 2.5]), st.booleans()
        ),
        min_size=1, max_size=3,
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    messages=st.lists(_message, min_size=1, max_size=10),
    forged=st.integers(0, 9),
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
    forged %= len(messages)
    for i, (sender, variant, copies) in enumerate(messages):
        tx = WorkerTransaction(
            round=1, worker=senders[sender], update=sim.g0, expected_reward=variant,
            epochs=1, train_size=1,
        )
        payload = worker_tx_signing_bytes(tx)
        tampered = worker_tx_signing_bytes(dataclasses.replace(tx, train_size=2))
        # The forged message carries a signature under another device's key.
        signed_by = dataclasses.replace(tx, worker=ids[-1]) if i == forged else tx
        signature = sign_worker_tx(signed_by, sim.signer, payload).signature
        tx = dataclasses.replace(tx, signature=signature)
        if i == forged:
            forged_tx = tx
        for peer, at, in_transit in copies:
            if peer < n_peers:
                inbox[peers[peer]].append((tx, tampered if in_transit else payload, at))

    verified = Counter()

    def counting_verify(msg, signer, payload):
        verified[id(msg), id(payload)] += 1
        return verify_worker_tx(msg, signer, payload)

    def key(tx):
        return tx.worker

    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sim._gossip(inbox, key, counting_verify, peers, rng_got)
    want = naive_gossip(sim, inbox, key, verify_worker_tx, peers, rng_want)
    for p in peers:
        assert [(id(msg), at) for msg, _, at in got[p]] == [(id(msg), at) for msg, at in want[p]]
        assert all(payload == worker_tx_signing_bytes(msg) for msg, payload, _ in got[p])
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    assert max(verified.values(), default=1) == 1
    assert not any(msg is forged_tx for p in peers for msg, _, _ in got[p])
