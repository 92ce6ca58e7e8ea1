import base64
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfl.learning import ModelParams, mlp_arch, param_count, softmax_arch
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
    ValidatorTransaction,
    Vote,
    VoteTally,
    WorkerTransaction,
    ZERO_HASH,
    append_block,
    block_body_bytes,
    canonical_decode,
    canonical_encode,
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


def vtx(validator=5, worker=1, vote=Vote.POSITIVE, round=1) -> ValidatorTransaction:
    return ValidatorTransaction(
        round=round,
        validator=dev(validator),
        inner=wtx(worker, round),
        vote=vote,
        verify_reward=1,
        vali_reward=1,
    )


def vtx_bytes(v: ValidatorTransaction) -> bytes:
    return validator_tx_signing_bytes(v, payload_hash(worker_tx_signing_bytes(v.inner)))


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

    def test_hmac_rejects_validator_tx_tampered_after_signing(self):
        signer = make_signer(HmacSigner)
        payload = vtx_bytes(vtx())
        signed = sign_validator_tx(vtx(), signer, payload)
        assert verify_validator_tx(signed, signer, payload)
        moved = ModelParams(signed.inner.update.values + 1e-9, ARCH)
        for tampered in (
            dataclasses.replace(signed, vote=Vote.NEGATIVE),
            dataclasses.replace(signed, inner=dataclasses.replace(signed.inner, epochs=50)),
            dataclasses.replace(signed, inner=dataclasses.replace(signed.inner, update=moved)),
        ):
            assert not verify_validator_tx(tampered, signer, vtx_bytes(tampered))

    def test_validator_tx_signing_bytes_do_not_grow_with_the_update(self):
        # A vote commits to its worker transaction by digest.
        def vote_on(arch: str) -> ValidatorTransaction:
            update = ModelParams(np.zeros(param_count(arch)), arch)
            return dataclasses.replace(vtx(), inner=dataclasses.replace(wtx(), update=update))

        small, large = vote_on(softmax_arch(8, 4)), vote_on(mlp_arch(128, 16, 10))
        assert len(worker_tx_signing_bytes(large.inner)) > 17_000
        assert len(vtx_bytes(large)) == len(vtx_bytes(small))
        with pytest.raises(ValueError):
            validator_tx_signing_bytes(small, worker_tx_signing_bytes(small.inner))

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


# --- canonical encoding ------------------------------------------------------


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


def st_vote():
    return st.sampled_from([Vote.POSITIVE, Vote.NEGATIVE])


def st_vtx():
    def build(round, validator, inner, vote, sig):
        inner = dataclasses.replace(inner, round=round)
        return ValidatorTransaction(
            round=round, validator=validator, inner=inner, vote=vote,
            verify_reward=1, vali_reward=1, signature=sig,
        )

    return st.builds(
        build,
        round=st.integers(0, 1000),
        validator=st_device(),
        inner=st_wtx(),
        vote=st_vote(),
        sig=st.binary(max_size=40),
    )


def st_tally():
    def build(tx, votes):
        votes = dict(votes)  # dedupe by voter id
        pos = sum(1 for v in votes.values() if v)
        return VoteTally(tx, pos, len(votes) - pos, frozenset(dev(i) for i in votes))

    return st.builds(
        build,
        tx=st_wtx(),
        votes=st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=0, max_size=6),
    )


def st_block():
    def build(round, miner, prev, tallies, reward, vrewards, model_hash, sig):
        unique = {t.worker: t for t in tallies}
        fixed = tuple(
            dataclasses.replace(t, tx=dataclasses.replace(t.tx, round=round))
            for t in unique.values()
        )
        b = Block(
            round=round,
            miner=miner,
            prev_hash=prev,
            tallies=fixed,
            miner_reward=reward,
            validator_rewards={dev(i): r for i, r in vrewards},
            model_hash=model_hash,
            signature=sig,
        )
        return dataclasses.replace(b, content_hash=compute_content_hash(b))

    return st.builds(
        build,
        round=st.integers(0, 1000),
        miner=st_device(),
        prev=st.binary(min_size=32, max_size=32),
        tallies=st.lists(st_tally(), max_size=3),
        reward=st.integers(0, 10**6),
        vrewards=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 100)), max_size=4),
        model_hash=st.binary(min_size=32, max_size=32),
        sig=st.binary(max_size=40),
    )


class TestCodec:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st_params(), st_vote(), st_wtx(), st_vtx(), st_tally(), st_block()))
    def test_roundtrip(self, obj):
        assert canonical_decode(canonical_encode(obj)) == obj

    @settings(max_examples=40, deadline=None)
    @given(st_wtx())
    def test_structural_equality_is_byte_equality(self, tx):
        clone = dataclasses.replace(tx)
        assert canonical_encode(tx) == canonical_encode(clone)

    def test_shared_tally_section_encodes_the_same_body(self):
        b = block()
        given = [worker_tx_signing_bytes(t.tx) for t in b.tallies]
        section = encode_tallies(b.tallies, given)
        assert section == encode_tallies(b.tallies)
        assert block_body_bytes(b, section) == block_body_bytes(b)
        signer = make_signer()
        assert seal_block(b, signer, section) == seal_block(b, signer)

    def test_vote_flip_changes_block_hash(self):
        base = block()
        flipped = dataclasses.replace(
            base,
            tallies=(tally(1, pos=1, neg=2), base.tallies[1]),
        )
        assert compute_content_hash(base) != compute_content_hash(flipped)

    def test_truncated_rejected(self):
        data = canonical_encode(wtx())
        with pytest.raises(CodecError):
            canonical_decode(data[:-1])

    def test_trailing_bytes_rejected(self):
        data = canonical_encode(wtx())
        with pytest.raises(CodecError):
            canonical_decode(data + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            canonical_decode(b"\xff\x00")

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_encode("not a wire type")


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


class TestJsonl:
    def build_chain(self):
        signer = make_signer()
        chain = append_block(Blockchain(), make_genesis(params()), signer)
        nxt = seal_block(block(round=1, prev=chain.tip_hash), signer)
        return append_block(chain, nxt, signer)

    def test_roundtrip_preserves_hash_links(self):
        chain = self.build_chain()
        restored = chain_from_jsonl(chain_to_jsonl(chain))
        assert restored == chain
        assert restored.verify_links()

    def test_flipped_tally_byte_fails_after_reload(self):
        chain = self.build_chain()
        assert chain.verify_links()
        lines = chain_to_jsonl(chain).splitlines()
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
        assert chain_to_jsonl(chain) == chain_to_jsonl(chain)

    def test_one_line_per_block(self):
        chain = self.build_chain()
        lines = chain_to_jsonl(chain).splitlines()
        assert len(lines) == len(chain)
