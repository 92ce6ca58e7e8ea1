"""Transactions, blocks, the hash-linked chain and pluggable signatures.

What a run signs or hashes is a canonical byte preimage (documented in
docs/wire-format.md): fixed field order, big-endian integers, IEEE-754
binary64 reals, length-prefixed byte strings. Each preimage commits to
every field but the signature, so structurally equal objects sign and
hash alike. ``chain.jsonl`` is the one serialised form that is read back.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import hmac as _hmac
import json
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, NamedTuple, Sequence, TextIO

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


class VoteMessage(NamedTuple):
    """A validator's signed vote on one update. Its signing bytes are row
    (validator, ``column``) of the round's :func:`validator_tx_signing_bytes`
    table; ``column`` indexes the round's updates in worker-id order."""

    validator: DeviceId
    column: int
    signature: bytes


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
        object.__setattr__(self, "validator_rewards", tuple(sorted(self.validator_rewards)))
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


# --- signing and hashing preimages ----------------------------------------

_TAG_MODEL = 0x01
_TAG_WORKER_TX = 0x02
_TAG_VOTE = 0x03
_TAG_VALIDATOR_TX = 0x04
_TAG_TALLY = 0x05
_TAG_BLOCK = 0x06


class CodecError(Exception):
    """A preimage field cannot be encoded (a negative integer), or a
    ``chain.jsonl`` line is malformed; the message names the line."""


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


def encode_model_params(p: ModelParams) -> bytes:
    return _u8(_TAG_MODEL) + _blob(p.arch_id.encode()) + _f64vec(p.values)


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


def validator_tx_signing_bytes(
    round: int, validators: Sequence[DeviceId], inner_digests: Sequence[bytes],
    inner_signatures: Sequence[bytes], negative: np.ndarray,
) -> bytes:
    """The signing bytes of a round's votes: one fixed-width row per
    (validator, update) pair, rows in row-major order of the (validators ×
    updates) ``negative`` table. A row is everything but the signature, with
    the inner worker transaction committed by digest: ``inner_digests[j]``
    is the ``payload_hash`` of update j's ``worker_tx_signing_bytes``, so a
    row is 103 bytes (with 32-byte inner signatures) however large the
    update. Raises ValueError if a digest is not ``HASH_LEN`` bytes, or the
    validator ids or the inner signatures differ in length."""
    if any(len(d) != HASH_LEN for d in inner_digests):
        raise ValueError(f"inner digests must be {HASH_LEN} bytes")
    if len({len(v) for v in validators}) > 1 or len({len(s) for s in inner_signatures}) > 1:
        raise ValueError("validator ids or inner signatures differ in length")
    if not negative.size:
        return b""
    n_v, n_u = negative.shape
    head = b"".join(_u8(_TAG_VALIDATOR_TX) + _u64(round) + _blob(v) for v in validators)
    inner = b"".join(
        _blob(d) + _blob(sig) + _u8(_TAG_VOTE) for d, sig in zip(inner_digests, inner_signatures)
    )
    h, m = len(head) // n_v, len(inner) // n_u
    rows = np.empty((n_v, n_u, h + m + 1), dtype=np.uint8)
    rows[:, :, :h] = np.frombuffer(head, np.uint8).reshape(n_v, 1, h)
    rows[:, :, h : h + m] = np.frombuffer(inner, np.uint8).reshape(1, n_u, m)
    rows[:, :, h + m] = np.where(negative, Vote.NEGATIVE.value, Vote.POSITIVE.value)
    return rows.tobytes()


def signed_votes(rows: Sequence[bytes]) -> list[int]:
    """The vote value (``Vote.value``) each validator-transaction row signs:
    its last byte."""
    return [row[-1] for row in rows]


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


# --- signatures -----------------------------------------------------------


class Signer(ABC):
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

    @abstractmethod
    def sign(self, payload: bytes, device: DeviceId) -> bytes:
        """device's signature over payload."""

    @abstractmethod
    def verify(self, payload: bytes, signature: bytes, device: DeviceId) -> bool:
        """Whether signature is device's over payload."""


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
# encodes a transaction once (a round's votes as one table) and the message
# carries those bytes, so each receiver checks the signature over what it
# received.


def sign_worker_tx(
    tx: WorkerTransaction, signer: Signer, signing_bytes: bytes
) -> WorkerTransaction:
    return replace(tx, signature=signer.sign(signing_bytes, tx.worker))


def verify_worker_tx(
    tx: WorkerTransaction, signer: Signer, signing_bytes: bytes
) -> bool:
    return signer.verify(signing_bytes, tx.signature, tx.worker)


def sign_validator_tx(validator: DeviceId, signer: Signer, signing_bytes: bytes) -> bytes:
    return signer.sign(signing_bytes, validator)


def verify_validator_tx(msg: VoteMessage, signer: Signer, signing_bytes: bytes) -> bool:
    return signer.verify(signing_bytes, msg.signature, msg.validator)


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
    return signer.verify(block.content_hash, block.signature, block.miner)


def make_genesis(initial_model: ModelParams) -> Block:
    """Synthetic round-0 block committing to the initial global model. It
    is unsigned, so a chain starts from it and never appends it."""
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


def _uint(d: Mapping, key: str) -> int:
    """An integer field of a dump: an int (not a bool) that fits ``_u64``."""
    value = d[key]
    if type(value) is not int or not 0 <= value < 2**64:
        raise ValueError(f"{key}: expected an unsigned 64-bit integer, got {value!r}")
    return value


def _tally_from_json(d: dict) -> VoteTally:
    raw = base64.b64decode(d["update_b64"], validate=True)
    if len(raw) % 8:
        raise ValueError(f"update_b64 holds {len(raw)} bytes, not whole doubles")
    values = np.frombuffer(raw, dtype=">f8")
    tx = WorkerTransaction(
        round=_uint(d, "round"),
        worker=bytes.fromhex(d["worker"]),
        update=ModelParams(values, d["update_arch"]),
        expected_reward=_uint(d, "expected_reward"),
        epochs=_uint(d, "epochs"),
        train_size=_uint(d, "train_size"),
        signature=bytes.fromhex(d["tx_signature"]),
    )
    return VoteTally(
        tx,
        _uint(d, "positives"),
        _uint(d, "negatives"),
        frozenset(bytes.fromhex(v) for v in d["voters"]),
    )


def block_from_json(d: dict) -> Block:
    rewards = d["validator_rewards"]
    return Block(
        round=_uint(d, "round"),
        miner=bytes.fromhex(d["miner"]),
        prev_hash=bytes.fromhex(d["prev_hash"]),
        tallies=tuple(_tally_from_json(t) for t in d["tallies"]),
        miner_reward=_uint(d, "miner_reward"),
        validator_rewards=tuple((bytes.fromhex(k), _uint(rewards, k)) for k in rewards),
        model_hash=bytes.fromhex(d["model_hash"]),
        content_hash=bytes.fromhex(d["content_hash"]),
        signature=bytes.fromhex(d["signature"]),
    )


def chain_to_jsonl(chain: Blockchain, out: TextIO) -> None:
    """Write one block per line to out, each line the canonical JSON of the
    block: ``json.dumps`` with sorted keys and ``,``/``:`` separators, hashes
    and ids hex, ints decimal, params base64. The text is formatted here,
    keys in sorted order, because no value can need a JSON escape: hex,
    base64, decimal ints and arch ids (``[a-z0-9:-]``, see
    ``learning.parse_arch``). A tally's text is written before the next is
    built, so about one tally's text is held at a time."""
    for b in chain.blocks:
        out.write(
            f'{{"content_hash":"{b.content_hash.hex()}","miner":"{b.miner.hex()}",'
            f'"miner_reward":{b.miner_reward},"model_hash":"{b.model_hash.hex()}",'
            f'"prev_hash":"{b.prev_hash.hex()}","round":{b.round},'
            f'"signature":"{b.signature.hex()}","tallies":['
        )
        for i, t in enumerate(b.tallies):
            tx = t.tx
            voters = ",".join(f'"{h}"' for h in sorted(v.hex() for v in t.voters))
            out.write(
                f'{"," if i else ""}{{"epochs":{tx.epochs},"expected_reward":{tx.expected_reward},'
                f'"negatives":{t.negatives},"positives":{t.positives},"round":{tx.round},'
                f'"train_size":{tx.train_size},"tx_signature":"{tx.signature.hex()}",'
                f'"update_arch":"{tx.update.arch_id}","update_b64":"'
            )
            out.write(binascii.b2a_base64(tx.update.values.astype(">f8"), newline=False).decode())
            out.write(f'","voters":[{voters}],"worker":"{tx.worker.hex()}"}}')
        rewards = ",".join(
            f'"{d}":{r}' for d, r in sorted({d.hex(): r for d, r in b.validator_rewards}.items())
        )
        out.write(f'],"validator_rewards":{{{rewards}}}}}\n')


def _lines(text: str):
    """The lines of ``text`` one at a time, without their LF or CRLF
    ending; no list of them all is built."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        yield text[start:end].removesuffix("\r")
        start = end + 1


def chain_from_jsonl(text: str) -> Blockchain:
    """Inverse of :func:`chain_to_jsonl`, parsing one line at a time. Lines
    end in LF or CRLF; blank ones are skipped. A malformed line raises
    :class:`CodecError` naming its 1-based number and the cause."""
    blocks = []
    for n, line in enumerate(_lines(text), 1):
        if not line:
            continue
        try:
            blocks.append(block_from_json(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise CodecError(f"line {n}: bad JSON: {exc}") from None
        except KeyError as exc:
            raise CodecError(f"line {n}: missing key {exc}") from None
        except binascii.Error as exc:
            raise CodecError(f"line {n}: bad base64: {exc}") from None
        except (ValueError, TypeError, AttributeError) as exc:
            raise CodecError(f"line {n}: {exc}") from None
    return Blockchain(tuple(blocks))
