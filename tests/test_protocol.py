import base64
import dataclasses
import io
import json
import struct
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_DATASET

from vbfl.config import BEHAVIOR_VALIDATOR_FLIP, SimConfig, TrainSpec
from vbfl.learning import ModelParams, mlp_arch, param_count, softmax_arch
from vbfl.orchestrator import Simulation, assign_roles, make_devices
from vbfl.protocol import (
    BlacklistedMinerError,
    Block,
    Blockchain,
    BlockSignatureError,
    ChainLinkError,
    CodecError,
    GENESIS_MINER,
    HmacSigner,
    StubSigner,
    UnregisteredDevice,
    Vote,
    VoteMessage,
    VoteTally,
    WorkerTransaction,
    ZERO_HASH,
    append_block,
    block_body_bytes,
    chain_from_jsonl,
    chain_to_jsonl,
    compute_content_hash,
    encode_tallies,
    make_genesis,
    payload_hash,
    seal_block,
    sign_validator_tx,
    sign_worker_tx,
    validator_tx_signing_bytes,
    verify_block,
    verify_validator_tx,
    verify_worker_tx,
    worker_tx_signing_bytes,
)
from vbfl.rng import substream

ARCH = softmax_arch(2, 2)


def dev(n: int) -> bytes:
    return bytes([n]) * 16


def params(seed: int = 0) -> ModelParams:
    return ModelParams(np.random.default_rng(seed).normal(size=6), ARCH)


def wtx(worker=1, round=1, seed=0, signature=b"") -> WorkerTransaction:
    return WorkerTransaction(
        round=round,
        worker=dev(worker),
        update=params(seed),
        expected_reward=750,
        epochs=5,
        train_size=150,
        signature=signature,
    )


@dataclass(frozen=True)
class VoteRow:
    """The fields one row of a round's vote signing table commits to."""

    round: int
    validator: bytes
    inner: WorkerTransaction
    vote: Vote


def vtx(validator=5, worker=1, vote=Vote.POSITIVE, round=1) -> VoteRow:
    return VoteRow(round, dev(validator), wtx(worker, round), vote)


def vtx_bytes(v: VoteRow) -> bytes:
    """The vote's signing bytes: a table of one row."""
    return validator_tx_signing_bytes(
        v.round,
        [v.validator],
        [payload_hash(worker_tx_signing_bytes(v.inner))],
        [v.inner.signature],
        np.array([[v.vote is Vote.NEGATIVE]]),
    )


def struct_vote_row(round, validator, digest, inner_signature, vote: Vote) -> bytes:
    """A vote's signing bytes, written field by field as docs/wire-format.md
    lays them out."""
    out = struct.pack(">BQ", 0x04, round)
    for blob in (validator, digest, inner_signature):
        out += struct.pack(">I", len(blob)) + blob
    return out + struct.pack(">BB", 0x03, vote.value)


def tally(worker=1, pos=2, neg=1, voters=(5, 6, 7)) -> VoteTally:
    return VoteTally(wtx(worker), pos, neg, frozenset(dev(v) for v in voters))


def block(miner=9, round=1, prev=ZERO_HASH) -> Block:
    return Block(
        round=round,
        miner=dev(miner),
        prev_hash=prev,
        tallies=(tally(1), tally(2, pos=0, neg=3)),
        miner_reward=60,
        validator_rewards={dev(5): 24, dev(6): 24},
    )


def make_signer(kind=StubSigner, ids=range(0, 12)):
    signer = kind()
    for n in ids:
        signer.register(dev(n), b"secret-%d" % n)
    return signer


# --- signatures ------------------------------------------------------------


class TestSigning:
    def test_stub_sign_deterministic(self):
        signer = make_signer()
        a = signer.sign(b"payload", dev(1))
        b = signer.sign(b"payload", dev(1))
        assert a == b and len(a) == 32

    def test_stub_always_verifies(self):
        # Emulation mode: verification short-circuits to success, even for
        # a tampered payload.
        signer = make_signer()
        tx = sign_worker_tx(wtx(), signer, worker_tx_signing_bytes(wtx()))
        tampered = dataclasses.replace(tx, expected_reward=10**6)
        assert verify_worker_tx(tx, signer, worker_tx_signing_bytes(tx))
        assert verify_worker_tx(tampered, signer, worker_tx_signing_bytes(tampered))

    def test_hmac_detects_tampering(self):
        signer = make_signer(HmacSigner)
        tx = sign_worker_tx(wtx(), signer, worker_tx_signing_bytes(wtx()))
        assert verify_worker_tx(tx, signer, worker_tx_signing_bytes(tx))
        tampered = dataclasses.replace(tx, expected_reward=10**6)
        assert not verify_worker_tx(tampered, signer, worker_tx_signing_bytes(tampered))

    def test_signing_sets_only_the_signature(self):
        signer = make_signer(HmacSigner)
        w_bytes, v_bytes = worker_tx_signing_bytes(wtx()), vtx_bytes(vtx())
        assert sign_worker_tx(wtx(), signer, w_bytes) == dataclasses.replace(
            wtx(), signature=signer.sign(w_bytes, wtx().worker)
        )
        assert sign_validator_tx(dev(5), signer, v_bytes) == signer.sign(v_bytes, dev(5))

    def test_hmac_rejects_validator_tx_tampered_after_signing(self):
        signer = make_signer(HmacSigner)
        v = vtx()
        payload = vtx_bytes(v)
        signed = VoteMessage(v.validator, 0, sign_validator_tx(v.validator, signer, payload))
        assert verify_validator_tx(signed, signer, payload)
        moved = ModelParams(v.inner.update.values + 1e-9, ARCH)
        for tampered in (
            dataclasses.replace(v, vote=Vote.NEGATIVE),
            dataclasses.replace(v, inner=dataclasses.replace(v.inner, epochs=50)),
            dataclasses.replace(v, inner=dataclasses.replace(v.inner, update=moved)),
        ):
            assert not verify_validator_tx(signed, signer, vtx_bytes(tampered))
        assert not verify_validator_tx(signed._replace(validator=dev(6)), signer, payload)

    def test_validator_tx_signing_bytes_do_not_grow_with_the_update(self):
        # A vote commits to its worker transaction by digest.
        def vote_on(arch: str) -> VoteRow:
            update = ModelParams(np.zeros(param_count(arch)), arch)
            return dataclasses.replace(vtx(), inner=dataclasses.replace(wtx(), update=update))

        small, large = vote_on(softmax_arch(8, 4)), vote_on(mlp_arch(128, 16, 10))
        assert len(worker_tx_signing_bytes(large.inner)) > 17_000
        assert len(vtx_bytes(large)) == len(vtx_bytes(small))
        undigested, one = worker_tx_signing_bytes(small.inner), np.zeros((1, 1), dtype=bool)
        with pytest.raises(ValueError):
            validator_tx_signing_bytes(1, [dev(5)], [undigested], [b""], one)

    def test_rows_of_two_widths_are_refused(self):
        # Inner signatures or validator ids of two lengths would give rows
        # of two widths.
        with pytest.raises(ValueError, match="differ in length"):
            validator_tx_signing_bytes(
                1, [dev(5)], [ZERO_HASH] * 2, [b"\x01" * 32, b"\x01" * 31],
                np.zeros((1, 2), dtype=bool),
            )
        with pytest.raises(ValueError, match="differ in length"):
            validator_tx_signing_bytes(
                1, [dev(5), dev(6)[:15]], [ZERO_HASH], [b"\x01" * 32],
                np.zeros((2, 1), dtype=bool),
            )

    def test_hmac_rejects_wrong_key(self):
        signer = make_signer(HmacSigner)
        tx = wtx()
        forged = dataclasses.replace(
            tx, signature=signer.sign(worker_tx_signing_bytes(tx), dev(2))
        )
        assert not verify_worker_tx(forged, signer, worker_tx_signing_bytes(forged))

    def test_unregistered_device(self):
        signer = make_signer(ids=())
        with pytest.raises(UnregisteredDevice):
            signer.sign(b"x", dev(1))

    def test_hmac_refuses_a_signature_of_an_unregistered_device(self):
        signer = make_signer(HmacSigner, ids=(1,))
        signature = signer.sign(b"x", dev(1))
        assert signer.verify(b"x", signature, dev(1))
        assert not signer.verify(b"x", signature, dev(2))


# --- signing and hashing preimages ---------------------------------------------


def st_params():
    return st.integers(0, 2**31).map(params)


def st_device():
    return st.integers(0, 255).map(dev)


def st_wtx():
    return st.builds(
        WorkerTransaction,
        round=st.integers(0, 1000),
        worker=st_device(),
        update=st_params(),
        expected_reward=st.integers(0, 10**6),
        epochs=st.integers(1, 50),
        train_size=st.integers(1, 10**5),
        signature=st.binary(max_size=40),
    )


# One change per field of a worker transaction.
WTX_CHANGES = {
    "round": lambda tx: replace(tx, round=tx.round + 1),
    "worker": lambda tx: replace(tx, worker=dev(3)),
    "update": lambda tx: replace(tx, update=params(seed=1)),
    "expected_reward": lambda tx: replace(tx, expected_reward=tx.expected_reward + 1),
    "epochs": lambda tx: replace(tx, epochs=tx.epochs + 1),
    "train_size": lambda tx: replace(tx, train_size=tx.train_size + 1),
    "signature": lambda tx: replace(tx, signature=b"\x01" * 32),
}


def on_inner(change):
    """A validator transaction whose inner transaction took change; its
    round follows the inner round, which it must equal."""
    def apply(v):
        inner = change(v.inner)
        return replace(v, round=inner.round, inner=inner)
    return apply


def on_tally(change):
    """A block whose first tally took change."""
    return lambda b: replace(b, tallies=(change(b.tallies[0]),) + b.tallies[1:])


def flip_one_vote(t: VoteTally) -> VoteTally:
    return replace(t, positives=t.positives - 1, negatives=t.negatives + 1)


def swap_voter(t: VoteTally) -> VoteTally:
    return replace(t, voters=(t.voters - {max(t.voters)}) | {dev(11)})


# (object kind, the field paths a change touches, the change). Every field
# but the signatures (and a block's content hash) is in its object's
# signing or body preimage; a field left out would let a change to it
# pass unsigned and unhashed.
PREIMAGE_CHANGES = [
    *(("worker_tx", (f,), c) for f, c in WTX_CHANGES.items() if f != "signature"),
    *(
        ("validator_tx", ("round", "inner.round") if f == "round" else (f"inner.{f}",),
         on_inner(c))
        for f, c in WTX_CHANGES.items()
    ),
    ("validator_tx", ("validator",), lambda v: replace(v, validator=dev(6))),
    ("validator_tx", ("vote",), lambda v: replace(v, vote=Vote.NEGATIVE)),
    ("block", ("round",), lambda b: replace(b, round=b.round + 1)),
    ("block", ("miner",), lambda b: replace(b, miner=dev(8))),
    ("block", ("prev_hash",), lambda b: replace(b, prev_hash=b"\x11" * 32)),
    ("block", ("miner_reward",), lambda b: replace(b, miner_reward=b.miner_reward + 1)),
    ("block", ("validator_rewards",), lambda b: replace(b, validator_rewards={dev(5): 25})),
    ("block", ("model_hash",), lambda b: replace(b, model_hash=b"\x22" * 32)),
    ("block", ("tallies.positives", "tallies.negatives"), on_tally(flip_one_vote)),
    ("block", ("tallies.voters",), on_tally(swap_voter)),
    *(
        ("block", (f"tallies.tx.{f}",), on_tally(lambda t, c=c: replace(t, tx=c(t.tx))))
        for f, c in WTX_CHANGES.items()
    ),
]

PREIMAGES = {
    "worker_tx": (wtx, worker_tx_signing_bytes),
    "validator_tx": (vtx, vtx_bytes),
    "block": (block, block_body_bytes),
}


def field_names(cls, exclude=()) -> set[str]:
    return {f.name for f in dataclasses.fields(cls) if f.init} - set(exclude)


class TestCodec:
    @pytest.mark.parametrize(
        "kind, paths, change",
        PREIMAGE_CHANGES,
        ids=[f"{kind}:{'+'.join(paths)}" for kind, paths, _ in PREIMAGE_CHANGES],
    )
    def test_each_field_changes_the_preimage(self, kind, paths, change):
        make, preimage = PREIMAGES[kind]
        base = make()
        assert preimage(change(base)) != preimage(base)

    def test_table_names_every_field(self):
        covered = {kind: set() for kind in PREIMAGES}
        for kind, paths, _ in PREIMAGE_CHANGES:
            covered[kind].update(paths)
        wtx_fields = field_names(WorkerTransaction)
        assert set(WTX_CHANGES) == wtx_fields
        assert covered["worker_tx"] == wtx_fields - {"signature"}
        assert covered["validator_tx"] == (
            field_names(VoteRow, ("inner",))
            | {f"inner.{f}" for f in wtx_fields}
        )
        assert covered["block"] == (
            field_names(Block, ("tallies", "content_hash", "signature"))
            | {f"tallies.{f}" for f in field_names(VoteTally, ("tx",))}
            | {f"tallies.tx.{f}" for f in wtx_fields}
        )

    def test_a_negative_integer_is_refused(self):
        with pytest.raises(CodecError, match="^negative integer"):
            worker_tx_signing_bytes(dataclasses.replace(wtx(), expected_reward=-1))

    @settings(max_examples=40, deadline=None)
    @given(st_wtx())
    def test_structural_equality_is_byte_equality(self, tx):
        clone = dataclasses.replace(tx)
        assert worker_tx_signing_bytes(tx) == worker_tx_signing_bytes(clone)

    def test_shared_tally_section_encodes_the_same_body(self):
        b = block()
        given = [worker_tx_signing_bytes(t.tx) for t in b.tallies]
        section = encode_tallies(b.tallies, given)
        assert section == encode_tallies(b.tallies)
        assert block_body_bytes(b, section) == block_body_bytes(b)
        signer = make_signer()
        assert seal_block(b, signer, section) == seal_block(b, signer)


# --- a round's votes on the wire -----------------------------------------------


def flip_vote_byte(row: bytes) -> bytes:
    """row with its vote value inverted: its last byte."""
    return row[:-1] + bytes([row[-1] ^ 1])


def vote_round(scheme: str) -> Simulation:
    """One round of 4 workers, 3 validators and 2 miners; the first
    validator of round 1 flips its votes."""
    cfg = SimConfig(
        rounds=1, master_seed=11, n_devices=9, n_workers=4, n_validators=3, n_miners=2,
        dataset=TINY_DATASET, arch="softmax",
        train=TrainSpec(epochs=2, learning_rate=0.05, batch_size=10),
        vh=0.0, signature_scheme=scheme, malicious_behaviors=(BEHAVIOR_VALIDATOR_FLIP,),
    )
    ids = [d.id for d in make_devices(cfg.n_devices)]
    _, validators, _ = assign_roles(1, ids, cfg, substream(cfg.master_seed, "roles", 1))
    flipper = ids.index(validators[0])
    return Simulation(replace(cfg, malicious=(flipper,)))


def hops(sim: Simulation, tamper=None) -> list:
    """Wrap sim._gossip; the list fills with each hop's (inbox as sent,
    kept messages). ``tamper(inbox)``, if given, edits the second hop's
    inbox, after signing and before delivery."""
    log, gossip = [], sim._gossip

    def recording(inbox, *args):
        if log and tamper:
            tamper(inbox)
        kept, ready = gossip(inbox, *args)
        log.append((inbox, kept))
        return kept, ready

    sim._gossip = recording
    return log


class TestVoteTable:
    @pytest.mark.parametrize("kind", [StubSigner, HmacSigner], ids=["stub", "hmac"])
    def test_every_row_is_the_documented_layout(self, kind):
        # 3 validators x 4 updates; the second validator flips its row.
        signer = make_signer(kind)
        unsigned = [wtx(w, round=3, seed=w) for w in (1, 2, 3, 4)]
        payloads = [worker_tx_signing_bytes(tx) for tx in unsigned]
        txs = [sign_worker_tx(tx, signer, b) for tx, b in zip(unsigned, payloads)]
        digests = [payload_hash(b) for b in payloads]
        validators = [dev(5), dev(6), dev(7)]
        negative = np.array([[False, True, False, False]] * 3)
        negative[1] ^= True
        table = validator_tx_signing_bytes(
            3, validators, digests, [tx.signature for tx in txs], negative
        )
        assert len(table) == 12 * 103
        for k in range(12):
            i, j = divmod(k, 4)
            row = table[103 * k : 103 * (k + 1)]
            vote = Vote.NEGATIVE if negative[i, j] else Vote.POSITIVE
            want = struct_vote_row(3, validators[i], digests[j], txs[j].signature, vote)
            assert row == want
            msg = VoteMessage(validators[i], j, sign_validator_tx(validators[i], signer, row))
            assert verify_validator_tx(msg, signer, row)
            assert verify_validator_tx(msg, signer, flip_vote_byte(row)) is (kind is StubSigner)

    @pytest.mark.parametrize("scheme", ["stub", "hmac"])
    def test_a_round_sends_the_documented_rows(self, scheme):
        sim = vote_round(scheme)
        log = hops(sim)
        t = sim.run_round().votes
        (_, received), (inbox, _) = log
        flips = np.array([[v in sim.malicious_ids] for v in t.validators])
        assert t.negative.shape == (3, 4) and flips.sum() == 1
        assert np.array_equal(t.negative, (t.vad > 0.0) ^ flips)
        assert 0 < t.negative.sum() < 12
        sent = [(msg, row) for m in sorted(inbox) for msg, row, _ in inbox[m]]
        assert sorted((msg.validator, msg.column) for msg, _ in sent) == [
            (v, j) for v in t.validators for j in range(4)
        ]
        for msg, row in sent:
            i = t.validators.index(msg.validator)
            tx, tx_bytes = received[msg.column]
            assert tx.worker == t.workers[msg.column]
            vote = Vote.NEGATIVE if t.negative[i, msg.column] else Vote.POSITIVE
            digest = payload_hash(tx_bytes)
            assert row == struct_vote_row(1, msg.validator, digest, tx.signature, vote)

    @pytest.mark.parametrize("scheme", ["stub", "hmac"])
    def test_a_row_flipped_after_signing(self, scheme):
        # Under HMAC the flipped vote fails at its miner: it is missing from
        # the tally, and its validator and the miner earn less. The stub
        # verifies anything, so the miner counts the vote the row now says.
        flipped = []

        def flip_first_vote(inbox):
            miner = min(m for m in inbox if inbox[m])
            msg, row, at = inbox[miner][0]
            inbox[miner][0] = (msg, flip_vote_byte(row), at)
            flipped.append((msg, row[-1]))

        clean = vote_round(scheme).run_round().legitimate_block
        sim = vote_round(scheme)
        hops(sim, flip_first_vote)
        block = sim.run_round().legitimate_block
        ((msg, was),) = flipped
        worker = sim.metrics[0].votes.workers[msg.column]
        before, after = ({t.worker: t for t in b.tallies} for b in (clean, block))
        rewards_before, rewards_after = dict(clean.validator_rewards), dict(block.validator_rewards)
        if scheme == "hmac":
            assert msg.validator in before[worker].voters
            assert msg.validator not in after[worker].voters
            assert rewards_after[msg.validator] == rewards_before[msg.validator] - 2
            assert block.miner_reward == clean.miner_reward - 1
            counts = (before[worker].positives, before[worker].negatives)
            lost = (1, 0) if was == Vote.POSITIVE.value else (0, 1)
            assert (after[worker].positives, after[worker].negatives) == (
                counts[0] - lost[0], counts[1] - lost[1]
            )
        else:
            assert after[worker].voters == before[worker].voters
            assert rewards_after == rewards_before
            moved = 1 if was == Vote.NEGATIVE.value else -1
            assert after[worker].positives == before[worker].positives + moved


# --- blocks and chains -------------------------------------------------------


class TestBlocks:
    def test_seal_and_verify(self):
        signer = make_signer()
        sealed = seal_block(block(), signer)
        assert verify_block(sealed, signer)

    def test_tampered_content_fails_verification(self):
        signer = make_signer()
        sealed = seal_block(block(), signer)
        assert verify_block(sealed, signer)  # memoizes the body hash
        bad = dataclasses.replace(sealed, miner_reward=999)
        assert not verify_block(bad, signer)
        assert verify_block(sealed, signer)

    def test_duplicate_tally_workers_rejected(self):
        with pytest.raises(ValueError):
            Block(
                round=1,
                miner=dev(9),
                prev_hash=ZERO_HASH,
                tallies=(tally(1), tally(1)),
                miner_reward=0,
                validator_rewards={},
            )

    def test_tally_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VoteTally(wtx(), 2, 2, frozenset([dev(5)]))

    def test_negative_count_rejected(self):
        # -1 + 1 matches the empty voter set, so only the sign check can catch it.
        with pytest.raises(ValueError, match="non-negative"):
            VoteTally(wtx(), -1, 1, frozenset())


class TestChain:
    def test_genesis_append(self):
        signer = make_signer()
        genesis = make_genesis(params())
        chain = append_block(Blockchain(), genesis, signer)
        assert len(chain) == 1
        assert genesis.prev_hash == ZERO_HASH
        assert genesis.miner == GENESIS_MINER
        assert chain.verify_links()

    def test_extend_and_verify(self):
        signer = make_signer()
        chain = append_block(Blockchain(), make_genesis(params()), signer)
        nxt = seal_block(block(round=1, prev=chain.tip_hash), signer)
        chain = append_block(chain, nxt, signer)
        assert len(chain) == 2
        assert chain.verify_links()

    def test_wrong_prev_hash_rejected(self):
        signer = make_signer()
        chain = append_block(Blockchain(), make_genesis(params()), signer)
        stale = seal_block(block(round=1, prev=b"\x11" * 32), signer)
        with pytest.raises(ChainLinkError):
            append_block(chain, stale, signer)

    def test_blacklisted_miner_rejected_distinctly(self):
        signer = make_signer()
        chain = append_block(Blockchain(), make_genesis(params()), signer)
        candidate = seal_block(block(miner=9, round=1, prev=chain.tip_hash), signer)
        with pytest.raises(BlacklistedMinerError):
            append_block(chain, candidate, signer, blacklist=frozenset([dev(9)]))

    def test_bad_signature_rejected(self):
        signer = make_signer(HmacSigner)
        chain = append_block(Blockchain(), make_genesis(params()), signer)
        candidate = seal_block(block(round=1, prev=chain.tip_hash), signer)
        forged = dataclasses.replace(candidate, signature=b"\x00" * 32)
        with pytest.raises(BlockSignatureError):
            append_block(chain, forged, signer)

    def test_non_advancing_round_rejected(self):
        signer = make_signer()
        chain = append_block(Blockchain(), make_genesis(params()), signer)
        nxt = seal_block(block(round=1, prev=chain.tip_hash), signer)
        chain = append_block(chain, nxt, signer)
        again = seal_block(block(miner=8, round=1, prev=chain.tip_hash), signer)
        with pytest.raises(ChainLinkError):
            append_block(chain, again, signer)


def dump(chain: Blockchain) -> str:
    """The chain's JSON-lines dump, written through a text stream."""
    out = io.StringIO()
    chain_to_jsonl(chain, out)
    return out.getvalue()


class TestJsonl:
    def build_chain(self):
        signer = make_signer()
        chain = append_block(Blockchain(), make_genesis(params()), signer)
        nxt = seal_block(block(round=1, prev=chain.tip_hash), signer)
        return append_block(chain, nxt, signer)

    def test_roundtrip_preserves_hash_links(self):
        chain = self.build_chain()
        restored = chain_from_jsonl(dump(chain))
        assert restored == chain
        assert restored.verify_links()

    def test_flipped_tally_byte_fails_after_reload(self):
        chain = self.build_chain()
        assert chain.verify_links()
        lines = dump(chain).splitlines()
        d = json.loads(lines[1])
        raw = bytearray(base64.b64decode(d["tallies"][0]["update_b64"]))
        raw[7] ^= 0x01  # lowest mantissa bit of the first big-endian double
        d["tallies"][0]["update_b64"] = base64.b64encode(bytes(raw)).decode()
        lines[1] = json.dumps(d, sort_keys=True, separators=(",", ":"))
        restored = chain_from_jsonl("\n".join(lines) + "\n")
        assert not restored.verify_links()
        assert chain.verify_links()

    def test_dump_stable(self):
        chain = self.build_chain()
        assert dump(chain) == dump(chain)

    def test_one_line_per_block(self):
        chain = self.build_chain()
        lines = dump(chain).splitlines()
        assert len(lines) == len(chain)


def reference_line(b: Block) -> str:
    """A block's dump line as json.dumps writes it from a dict of its fields."""
    d = {
        "round": b.round,
        "miner": b.miner.hex(),
        "prev_hash": b.prev_hash.hex(),
        "model_hash": b.model_hash.hex(),
        "content_hash": b.content_hash.hex(),
        "signature": b.signature.hex(),
        "miner_reward": b.miner_reward,
        "validator_rewards": {v.hex(): r for v, r in b.validator_rewards},
        "tallies": [
            {
                "worker": t.worker.hex(),
                "positives": t.positives,
                "negatives": t.negatives,
                "voters": sorted(v.hex() for v in t.voters),
                "epochs": t.tx.epochs,
                "train_size": t.tx.train_size,
                "expected_reward": t.tx.expected_reward,
                "round": t.tx.round,
                "update_arch": t.tx.update.arch_id,
                "update_b64": base64.b64encode(t.update.values.astype(">f8").tobytes()).decode(),
                "tx_signature": t.tx.signature.hex(),
            }
            for t in b.tallies
        ],
    }
    return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"


_U64 = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)
_IDS = st.binary(min_size=16, max_size=16)
_HASHES = st.binary(min_size=32, max_size=32)


@st.composite
def _tallies(draw) -> VoteTally:
    arch = draw(st.sampled_from([ARCH, mlp_arch(2, 3, 2)]))
    n = param_count(arch)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=n, max_size=n))
    voters = draw(st.frozensets(_IDS, max_size=4))
    positives = draw(st.integers(0, len(voters)))
    tx = WorkerTransaction(
        round=draw(_U64),
        worker=draw(_IDS),
        update=ModelParams(np.array(values), arch),
        expected_reward=draw(_U64),
        epochs=draw(_U64),
        train_size=draw(_U64),
        signature=draw(st.binary(max_size=32)),
    )
    return VoteTally(tx, positives, len(voters) - positives, voters)


_BLOCKS = st.builds(
    Block,
    round=_U64,
    miner=_IDS,
    prev_hash=_HASHES,
    tallies=st.lists(_tallies(), max_size=3, unique_by=lambda t: t.worker).map(tuple),
    miner_reward=_U64,
    validator_rewards=st.dictionaries(_IDS, _U64, max_size=3),
    model_hash=_HASHES,
    content_hash=_HASHES,
    signature=st.binary(max_size=32),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(blocks=st.lists(_BLOCKS, max_size=3))
def test_dump_equals_json_dumps_of_each_block(blocks):
    assert dump(Blockchain(tuple(blocks))) == "".join(reference_line(b) for b in blocks)


def test_dump_of_empty_block_sections():
    # No tallies, no voters and no validator rewards write as [] and {}.
    b = replace(block(), tallies=(tally(voters=(), pos=0, neg=0),), validator_rewards=())
    for case in (b, replace(b, tallies=())):
        assert dump(Blockchain((case,))) == reference_line(case)


def _set(key, value):
    return lambda d: {**d, key: value}


def _set_tally(key, value):
    return lambda d: {**d, "tallies": [{**d["tallies"][0], key: value}]}


def _drop(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _b64(n_bytes):
    return base64.b64encode(b"\x00" * n_bytes).decode()


@pytest.mark.parametrize(
    "edit, cause",
    [
        (None, "bad JSON"),
        (_drop("round"), "missing key 'round'"),
        (_set("miner", "zz"), "hexadecimal"),
        (_set_tally("update_b64", "!!!!"), "bad base64"),
        (_set_tally("update_b64", _b64(7)), "not whole doubles"),
        (_set_tally("update_b64", _b64(8 * 5)), "5 entries"),
        (_set_tally("update_arch", "softmax:02-2"), "non-canonical architecture id"),
        (_set("round", 1.5), "round: expected an unsigned"),
        (_set("miner_reward", -1), "miner_reward: expected an unsigned"),
        (_set("round", True), "round: expected an unsigned"),
    ],
    ids=[
        "json", "missing-key", "hex", "base64", "partial-double", "vector-length",
        "non-canonical-arch", "float-int", "negative-int", "bool-int",
    ],
)
def test_malformed_dump_line_named(edit, cause):
    chain = TestJsonl().build_chain()
    lines = dump(chain).splitlines()
    lines[1] = "garbage" if edit is None else json.dumps(edit(json.loads(lines[1])))
    with pytest.raises(CodecError, match=f"^line 2: .*{cause}"):
        chain_from_jsonl("\n".join(lines) + "\n")


def _field_paths(d):
    """Key paths to every field of a dump line: block, tally and reward fields."""
    for key, value in d.items():
        yield (key,)
        if key == "tallies":
            for i, t in enumerate(value):
                yield from ((key, i, k) for k in t)
        elif key == "validator_rewards":
            yield from ((key, k) for k in value)


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_dump_line_rejected_or_checkable(data):
    # One field of one line replaced by any JSON value: the load names the
    # line, or the loaded chain's link check answers True or False.
    lines = dump(TestJsonl().build_chain()).splitlines()
    n = data.draw(st.integers(0, len(lines) - 1))
    d = json.loads(lines[n])
    path = data.draw(st.sampled_from(list(_field_paths(d))))
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(_JSON_VALUES)
    lines[n] = json.dumps(d)
    try:
        restored = chain_from_jsonl("\n".join(lines) + "\n")
    except CodecError as exc:
        assert str(exc).startswith(f"line {n + 1}: ")
        return
    assert isinstance(restored.verify_links(), bool)


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_dump_line_endings(ending):
    # Either ending loads, with or without a final one, and a blank line
    # still counts when a malformed line is named.
    chain = TestJsonl().build_chain()
    lines = dump(chain).splitlines()
    assert chain_from_jsonl(ending.join(lines) + ending) == chain
    assert chain_from_jsonl(ending.join(lines)) == chain
    with pytest.raises(CodecError, match="^line 3: bad JSON"):
        chain_from_jsonl(ending.join([lines[0], "", "garbage", lines[1]]) + ending)
