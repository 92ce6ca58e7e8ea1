"""Transactions, blocks, the hash-linked chain and pluggable signatures.

Every signed or hashed object has a canonical byte encoding (documented in
docs/wire-format.md): fixed field order, big-endian integers, IEEE-754
binary64 reals, length-prefixed byte strings. The encoding is injective, so
structural equality and byte equality coincide.
"""

from __future__ import annotations

import base64
import hashlib
import hmac as _hmac
import json
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .learning import ModelParams

HASH_NAME = "sha256"
HASH_LEN = 32
ZERO_HASH = b"\x00" * HASH_LEN
DEVICE_ID_LEN = 16
GENESIS_MINER = b"\x00" * DEVICE_ID_LEN

DeviceId = bytes


def payload_hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class BlockRejected(Exception):
    """Base class for block admission failures."""


class ChainLinkError(BlockRejected):
    """Block does not extend the chain tip (stale or forked)."""


class BlockSignatureError(BlockRejected):
    """Content hash or miner signature failed verification."""


class BlacklistedMinerError(BlockRejected):
    """Block was mined by a device the appender has blacklisted."""


class UnregisteredDevice(Exception):
    """Signing was requested for a device with no registered key material."""


class Vote(Enum):
    POSITIVE = 1
    NEGATIVE = 0


@dataclass(frozen=True)
class WorkerTransaction:
    """A worker's local update plus its self-reported expected reward."""

    round: int
    worker: DeviceId
    update: ModelParams
    expected_reward: int
    epochs: int
    train_size: int
    signature: bytes = b""


@dataclass(frozen=True)
class ValidatorTransaction:
    """A validator's vote on one worker transaction, plus duty rewards."""

    round: int
    validator: DeviceId
    inner: WorkerTransaction
    vote: Vote
    verify_reward: int
    vali_reward: int
    signature: bytes = b""

    def __post_init__(self):
        if self.inner.round != self.round:
            raise ValueError("inner worker transaction is from a different round")


@dataclass(frozen=True)
class VoteTally:
    """Aggregated votes on one worker's update.

    Carries the full worker transaction so block processing can recompute
    the worker's reward from its declared epochs and shard size instead of
    trusting the self-reported figure.
    """

    tx: WorkerTransaction
    positives: int
    negatives: int
    voters: frozenset[DeviceId]

    def __post_init__(self):
        object.__setattr__(self, "voters", frozenset(self.voters))
        if self.positives < 0 or self.negatives < 0:
            raise ValueError("vote counts must be non-negative")
        if self.positives + self.negatives != len(self.voters):
            raise ValueError("vote counts disagree with the voter set")

    @property
    def worker(self) -> DeviceId:
        return self.tx.worker

    @property
    def update(self) -> ModelParams:
        return self.tx.update


@dataclass(frozen=True)
class Block:
    """One round's aggregated votes and duty rewards, hashed and signed.

    ``model_hash`` is only meaningful on the genesis block, where it commits
    to the initial global model; it is all-zeros elsewhere.
    """

    round: int
    miner: DeviceId
    prev_hash: bytes
    tallies: tuple[VoteTally, ...]
    miner_reward: int
    validator_rewards: tuple[tuple[DeviceId, int], ...]
    model_hash: bytes = ZERO_HASH
    content_hash: bytes = b""
    signature: bytes = b""
    # Memo of compute_content_hash. Not an init field, so replace() and
    # decoding build a block without it.
    _body_hash: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Tallies and validator rewards are keyed collections; normalize
        # their order so equal blocks are byte-equal under encoding.
        object.__setattr__(
            self, "tallies", tuple(sorted(self.tallies, key=lambda t: t.worker))
        )
        rewards = self.validator_rewards
        if isinstance(rewards, Mapping):
            rewards = rewards.items()
        object.__setattr__(self, "validator_rewards", tuple(sorted(rewards)))
        workers = [t.worker for t in self.tallies]
        if len(set(workers)) != len(workers):
            raise ValueError("tallies must be keyed by distinct workers")


@dataclass(frozen=True)
class Blockchain:
    """Hash-linked block sequence; append-only via :func:`append_block`."""

    blocks: tuple[Block, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def tip_hash(self) -> bytes:
        return self.blocks[-1].content_hash if self.blocks else ZERO_HASH

    def verify_links(self) -> bool:
        """Full hash-link pass: recomputed hashes, links and round order."""
        prev = ZERO_HASH
        last_round = -1
        for block in self.blocks:
            if block.prev_hash != prev:
                return False
            if compute_content_hash(block) != block.content_hash:
                return False
            if block.round <= last_round:
                return False
            prev = block.content_hash
            last_round = block.round
        return True


# --- canonical encoding -------------------------------------------------

_TAG_MODEL = 0x01
_TAG_WORKER_TX = 0x02
_TAG_VOTE = 0x03
_TAG_VALIDATOR_TX = 0x04
_TAG_TALLY = 0x05
_TAG_BLOCK = 0x06


class CodecError(Exception):
    """Canonical byte stream is malformed."""


def _u8(n: int) -> bytes:
    return struct.pack(">B", n)


def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


def _u64(n: int) -> bytes:
    if n < 0:
        raise CodecError("negative integer in canonical encoding")
    return struct.pack(">Q", n)


def _blob(b: bytes) -> bytes:
    return _u32(len(b)) + bytes(b)


def _f64vec(values: np.ndarray) -> bytes:
    return _u64(values.size) + values.astype(">f8").tobytes()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CodecError("truncated canonical encoding")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack(">B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def f64vec(self) -> np.ndarray:
        n = self.u64()
        return np.frombuffer(self.take(8 * n), dtype=">f8").astype(np.float64)

    def expect_tag(self, tag: int):
        got = self.u8()
        if got != tag:
            raise CodecError(f"expected tag 0x{tag:02x}, found 0x{got:02x}")

    def done(self):
        if self.pos != len(self.buf):
            raise CodecError("trailing bytes after canonical encoding")


def encode_model_params(p: ModelParams) -> bytes:
    return _u8(_TAG_MODEL) + _blob(p.arch_id.encode()) + _f64vec(p.values)


def _read_model_params(r: _Reader) -> ModelParams:
    r.expect_tag(_TAG_MODEL)
    arch = r.blob().decode()
    return ModelParams(r.f64vec(), arch)


def encode_vote(v: Vote) -> bytes:
    return _u8(_TAG_VOTE) + _u8(v.value)


def _read_vote(r: _Reader) -> Vote:
    r.expect_tag(_TAG_VOTE)
    return Vote(r.u8())


# Encoders with several fields after a parameter vector join their parts
# once: a chain of ``+`` would copy the vector once per following field.


def worker_tx_signing_bytes(tx: WorkerTransaction) -> bytes:
    """Everything but the signature; signing covers exactly these bytes."""
    return b"".join(
        (
            _u8(_TAG_WORKER_TX),
            _u64(tx.round),
            _blob(tx.worker),
            encode_model_params(tx.update),
            _u64(tx.expected_reward),
            _u64(tx.epochs),
            _u64(tx.train_size),
        )
    )


def encode_worker_tx(tx: WorkerTransaction) -> bytes:
    return worker_tx_signing_bytes(tx) + _blob(tx.signature)


def _read_worker_tx(r: _Reader) -> WorkerTransaction:
    r.expect_tag(_TAG_WORKER_TX)
    return WorkerTransaction(
        round=r.u64(),
        worker=r.blob(),
        update=_read_model_params(r),
        expected_reward=r.u64(),
        epochs=r.u64(),
        train_size=r.u64(),
        signature=r.blob(),
    )


def validator_tx_signing_bytes(vtx: ValidatorTransaction, inner_signing_bytes: bytes) -> bytes:
    """Everything but the signature. ``inner_signing_bytes`` is
    ``worker_tx_signing_bytes(vtx.inner)``: the bytes the validator received
    and verified, so a vote does not encode its worker transaction again."""
    return b"".join(
        (
            _u8(_TAG_VALIDATOR_TX),
            _u64(vtx.round),
            _blob(vtx.validator),
            inner_signing_bytes,
            _blob(vtx.inner.signature),
            encode_vote(vtx.vote),
            _u64(vtx.verify_reward),
            _u64(vtx.vali_reward),
        )
    )


def encode_validator_tx(vtx: ValidatorTransaction) -> bytes:
    inner = worker_tx_signing_bytes(vtx.inner)
    return validator_tx_signing_bytes(vtx, inner) + _blob(vtx.signature)


def _read_validator_tx(r: _Reader) -> ValidatorTransaction:
    r.expect_tag(_TAG_VALIDATOR_TX)
    return ValidatorTransaction(
        round=r.u64(),
        validator=r.blob(),
        inner=_read_worker_tx(r),
        vote=_read_vote(r),
        verify_reward=r.u64(),
        vali_reward=r.u64(),
        signature=r.blob(),
    )


def _tally_parts(t: VoteTally, tx_signing_bytes: bytes) -> list[bytes]:
    voters = sorted(t.voters)
    parts = [
        _u8(_TAG_TALLY),
        tx_signing_bytes,
        _blob(t.tx.signature),
        _u64(t.positives),
        _u64(t.negatives),
        _u32(len(voters)),
    ]
    parts.extend(_blob(v) for v in voters)
    return parts


def encode_tally(t: VoteTally) -> bytes:
    return b"".join(_tally_parts(t, worker_tx_signing_bytes(t.tx)))


def _read_tally(r: _Reader) -> VoteTally:
    r.expect_tag(_TAG_TALLY)
    tx = _read_worker_tx(r)
    positives = r.u64()
    negatives = r.u64()
    voters = frozenset(r.blob() for _ in range(r.u32()))
    return VoteTally(tx, positives, negatives, voters)


def encode_tallies(
    tallies: Sequence[VoteTally], tx_signing_bytes: Sequence[bytes] | None = None
) -> bytes:
    """A block body's tally section: the count, then each tally in order.

    ``tx_signing_bytes[i]``, when given, is ``worker_tx_signing_bytes`` of
    ``tallies[i].tx``. Blocks built on the same tallies share one section.
    """
    if tx_signing_bytes is None:
        tx_signing_bytes = [worker_tx_signing_bytes(t.tx) for t in tallies]
    parts = [_u32(len(tallies))]
    for t, tx_bytes in zip(tallies, tx_signing_bytes):
        parts += _tally_parts(t, tx_bytes)
    return b"".join(parts)


def block_body_bytes(block: Block, tally_section: bytes | None = None) -> bytes:
    """Everything but content_hash and signature; the hash covers this.

    ``tally_section``, when given, is ``encode_tallies(block.tallies)``.
    """
    if tally_section is None:
        tally_section = encode_tallies(block.tallies)  # worker-sorted by construction
    parts = [
        _u8(_TAG_BLOCK),
        _u64(block.round),
        _blob(block.miner),
        _blob(block.prev_hash),
        tally_section,
        _u64(block.miner_reward),
        _u32(len(block.validator_rewards)),
    ]
    for device, reward in block.validator_rewards:
        parts += (_blob(device), _u64(reward))
    parts.append(_blob(block.model_hash))
    return b"".join(parts)


def encode_block(block: Block) -> bytes:
    return block_body_bytes(block) + _blob(block.content_hash) + _blob(block.signature)


def _read_block(r: _Reader) -> Block:
    r.expect_tag(_TAG_BLOCK)
    round_ = r.u64()
    miner = r.blob()
    prev_hash = r.blob()
    tallies = tuple(_read_tally(r) for _ in range(r.u32()))
    miner_reward = r.u64()
    rewards = tuple((r.blob(), r.u64()) for _ in range(r.u32()))
    model_hash = r.blob()
    return Block(
        round=round_,
        miner=miner,
        prev_hash=prev_hash,
        tallies=tallies,
        miner_reward=miner_reward,
        validator_rewards=rewards,
        model_hash=model_hash,
        content_hash=r.blob(),
        signature=r.blob(),
    )


_ENCODERS = {
    ModelParams: encode_model_params,
    Vote: encode_vote,
    WorkerTransaction: encode_worker_tx,
    ValidatorTransaction: encode_validator_tx,
    VoteTally: encode_tally,
    Block: encode_block,
}

_READERS = {
    _TAG_MODEL: _read_model_params,
    _TAG_VOTE: _read_vote,
    _TAG_WORKER_TX: _read_worker_tx,
    _TAG_VALIDATOR_TX: _read_validator_tx,
    _TAG_TALLY: _read_tally,
    _TAG_BLOCK: _read_block,
}


def canonical_encode(obj) -> bytes:
    """Injective byte encoding of any wire type; see docs/wire-format.md."""
    try:
        encoder = _ENCODERS[type(obj)]
    except KeyError:
        raise TypeError(f"no canonical encoding for {type(obj).__name__}") from None
    return encoder(obj)


def canonical_decode(data: bytes):
    """Inverse of canonical_encode; raises CodecError on malformed input."""
    r = _Reader(data)
    if len(data) == 0:
        raise CodecError("empty canonical encoding")
    reader = _READERS.get(data[0])
    if reader is None:
        raise CodecError(f"unknown type tag 0x{data[0]:02x}")
    obj = reader(r)
    r.done()
    return obj


# --- signatures -----------------------------------------------------------


class Signer:
    """Registry of per-device key material plus a signing scheme.

    Subclasses define the actual scheme. The stub scheme reproduces the
    emulation assumption that every signature verifies; the HMAC scheme
    actually detects tampering.
    """

    def __init__(self):
        self._secrets: dict[DeviceId, bytes] = {}

    def register(self, device: DeviceId, secret: bytes):
        self._secrets[device] = bytes(secret)

    def _secret(self, device: DeviceId) -> bytes:
        try:
            return self._secrets[device]
        except KeyError:
            raise UnregisteredDevice(f"no key material for device {device.hex()}") from None

    def sign(self, payload: bytes, device: DeviceId) -> bytes:
        raise NotImplementedError

    def verify(self, payload: bytes, signature: bytes, device: DeviceId) -> bool:
        raise NotImplementedError


class StubSigner(Signer):
    """Deterministic keyed-hash signatures; verification always succeeds."""

    def sign(self, payload: bytes, device: DeviceId) -> bytes:
        h = hashlib.sha256(self._secret(device))  # sha256(secret + payload), uncopied
        h.update(payload)
        return h.digest()

    def verify(self, payload: bytes, signature: bytes, device: DeviceId) -> bool:
        return True


class HmacSigner(Signer):
    """HMAC-SHA256 signatures; verification recomputes and compares."""

    def sign(self, payload: bytes, device: DeviceId) -> bytes:
        return _hmac.new(self._secret(device), payload, hashlib.sha256).digest()

    def verify(self, payload: bytes, signature: bytes, device: DeviceId) -> bool:
        if device not in self._secrets:
            return False
        return _hmac.compare_digest(self.sign(payload, device), signature)


# The sign/verify functions take the signing bytes as an argument: a sender
# encodes a transaction once and the message carries those bytes, so each
# receiver checks the signature over what it received.


def sign_worker_tx(
    tx: WorkerTransaction, signer: Signer, signing_bytes: bytes
) -> WorkerTransaction:
    return replace(tx, signature=signer.sign(signing_bytes, tx.worker))


def verify_worker_tx(
    tx: WorkerTransaction, signer: Signer, signing_bytes: bytes
) -> bool:
    return signer.verify(signing_bytes, tx.signature, tx.worker)


def sign_validator_tx(
    vtx: ValidatorTransaction, signer: Signer, signing_bytes: bytes
) -> ValidatorTransaction:
    return replace(vtx, signature=signer.sign(signing_bytes, vtx.validator))


def verify_validator_tx(
    vtx: ValidatorTransaction, signer: Signer, signing_bytes: bytes
) -> bool:
    return signer.verify(signing_bytes, vtx.signature, vtx.validator)


def compute_content_hash(block: Block) -> bytes:
    """SHA-256 of the block body, computed once per block object.

    A frozen block's body cannot change, so the digest is kept on the
    object. A tampered (replaced) or reloaded block is a new object and is
    hashed afresh.
    """
    if block._body_hash is None:
        object.__setattr__(block, "_body_hash", payload_hash(block_body_bytes(block)))
    return block._body_hash


def seal_block(block: Block, signer: Signer, tally_section: bytes | None = None) -> Block:
    """Fill in content_hash and sign it with the miner's key.

    ``tally_section`` is as for :func:`block_body_bytes`. The sealed block
    keeps no memo, so appending it checks the hash against its own bytes.
    """
    digest = payload_hash(block_body_bytes(block, tally_section))
    return replace(block, content_hash=digest, signature=signer.sign(digest, block.miner))


def verify_block(block: Block, signer: Signer) -> bool:
    if compute_content_hash(block) != block.content_hash:
        return False
    if block.miner == GENESIS_MINER:
        return True
    return signer.verify(block.content_hash, block.signature, block.miner)


def make_genesis(initial_model: ModelParams) -> Block:
    """Synthetic round-0 block committing to the initial global model."""
    block = Block(
        round=0,
        miner=GENESIS_MINER,
        prev_hash=ZERO_HASH,
        tallies=(),
        miner_reward=0,
        validator_rewards=(),
        model_hash=payload_hash(encode_model_params(initial_model)),
    )
    return replace(block, content_hash=compute_content_hash(block))


def append_block(
    chain: Blockchain,
    block: Block,
    signer: Signer,
    blacklist: frozenset[DeviceId] = frozenset(),
) -> Blockchain:
    """Extend the chain by one block after admission checks.

    Raises ChainLinkError on a stale/forked link, BlacklistedMinerError when
    the miner is blacklisted by the appending device, BlockSignatureError on
    a bad content hash or signature.
    """
    if block.prev_hash != chain.tip_hash:
        raise ChainLinkError(
            f"block prev_hash {block.prev_hash.hex()[:12]} does not match tip"
        )
    if block.miner in blacklist:
        raise BlacklistedMinerError(f"miner {block.miner.hex()} is blacklisted")
    if not verify_block(block, signer):
        raise BlockSignatureError("content hash or signature failed verification")
    if chain.blocks and block.round <= chain.blocks[-1].round:
        raise ChainLinkError("block round does not advance the chain")
    return Blockchain(chain.blocks + (block,))


# --- JSON-lines export ----------------------------------------------------


def _tally_to_json(t: VoteTally) -> dict:
    return {
        "worker": t.worker.hex(),
        "positives": t.positives,
        "negatives": t.negatives,
        "voters": sorted(v.hex() for v in t.voters),
        "epochs": t.tx.epochs,
        "train_size": t.tx.train_size,
        "expected_reward": t.tx.expected_reward,
        "round": t.tx.round,
        "update_arch": t.tx.update.arch_id,
        "update_b64": base64.b64encode(t.tx.update.values.astype(">f8").tobytes()).decode(),
        "tx_signature": t.tx.signature.hex(),
    }


def block_to_json(block: Block) -> dict:
    return {
        "round": block.round,
        "miner": block.miner.hex(),
        "prev_hash": block.prev_hash.hex(),
        "model_hash": block.model_hash.hex(),
        "content_hash": block.content_hash.hex(),
        "signature": block.signature.hex(),
        "miner_reward": block.miner_reward,
        "validator_rewards": {d.hex(): r for d, r in block.validator_rewards},
        "tallies": [_tally_to_json(t) for t in block.tallies],
    }


def _tally_from_json(d: dict) -> VoteTally:
    values = np.frombuffer(base64.b64decode(d["update_b64"]), dtype=">f8")
    tx = WorkerTransaction(
        round=d["round"],
        worker=bytes.fromhex(d["worker"]),
        update=ModelParams(values, d["update_arch"]),
        expected_reward=d["expected_reward"],
        epochs=d["epochs"],
        train_size=d["train_size"],
        signature=bytes.fromhex(d["tx_signature"]),
    )
    return VoteTally(
        tx,
        d["positives"],
        d["negatives"],
        frozenset(bytes.fromhex(v) for v in d["voters"]),
    )


def block_from_json(d: dict) -> Block:
    return Block(
        round=d["round"],
        miner=bytes.fromhex(d["miner"]),
        prev_hash=bytes.fromhex(d["prev_hash"]),
        tallies=tuple(_tally_from_json(t) for t in d["tallies"]),
        miner_reward=d["miner_reward"],
        validator_rewards=tuple(
            (bytes.fromhex(k), v) for k, v in d["validator_rewards"].items()
        ),
        model_hash=bytes.fromhex(d["model_hash"]),
        content_hash=bytes.fromhex(d["content_hash"]),
        signature=bytes.fromhex(d["signature"]),
    )


def chain_to_jsonl(chain: Blockchain) -> str:
    """One block per line; stable key order, hashes hex, params base64."""
    lines = [
        json.dumps(block_to_json(b), sort_keys=True, separators=(",", ":"))
        for b in chain.blocks
    ]
    return "".join(line + "\n" for line in lines)


def chain_from_jsonl(text: str) -> Blockchain:
    blocks = tuple(block_from_json(json.loads(line)) for line in text.splitlines() if line)
    return Blockchain(blocks)
