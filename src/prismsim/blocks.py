"""Block types, hash sortition, and validation of mined blocks.

A miner commits to parents and contents for all ``m + 2`` sub-blocks at
once; after the (simulated) proof of work lands, the uniform draw assigns
the block one type and the block is pruned down to that type's parent and
content plus two Merkle inclusion proofs.  The index layout over the
committed lists is fixed: positions ``0..m-1`` are the voter chains,
``m`` the transaction sub-block, ``m+1`` the proposer sub-block, and the
sortition intervals follow the same order (voter range first, then
transaction, then proposer).
"""
from __future__ import annotations

from dataclasses import dataclass

from .crypto import SignatureScheme, sha256
from .ledger import Transaction
from .merkle import MerkleProof, merkle_verify
from .serialize import DIGEST_SIZE, u32, u64

TRANSACTION = "transaction"
PROPOSER = "proposer"
VOTER = "voter"


@dataclass(frozen=True)
class BlockType:
    kind: str  # transaction | proposer | voter
    chain_index: int = 0  # meaningful for voter blocks only

    def __post_init__(self):
        if self.kind not in (TRANSACTION, PROPOSER, VOTER):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == VOTER and self.chain_index < 0:
            raise ValueError("voter chain index must be >= 0")

    def leaf_index(self, m: int) -> int:
        """Position of this type in the committed parent/content lists."""
        if self.kind == VOTER:
            if self.chain_index >= m:
                raise BadSortitionProof(f"voter index {self.chain_index} >= m={m}")
            return self.chain_index
        if self.kind == TRANSACTION:
            return m
        return m + 1


def transaction_type() -> BlockType:
    return BlockType(TRANSACTION)


def proposer_type() -> BlockType:
    return BlockType(PROPOSER)


def voter_type(chain_index: int) -> BlockType:
    return BlockType(VOTER, chain_index)


@dataclass(frozen=True)
class SortitionParams:
    m: int
    rate_tx: float
    rate_prop: float
    rate_voter: float  # per-chain mining rate

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if min(self.rate_tx, self.rate_prop, self.rate_voter) <= 0:
            raise ValueError("all mining rates must be > 0")

    @property
    def total_rate(self) -> float:
        return self.rate_tx + self.rate_prop + self.m * self.rate_voter


def sortition(u: float, params: SortitionParams) -> BlockType:
    """Map a uniform draw in [0, 1) to a block type.

    The partition mirrors the hash-threshold regions of real mining:
    voter intervals first (one per chain), then transaction, then
    proposer, with widths proportional to the configured rates.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    f = params.total_rate
    voter_width = params.m * params.rate_voter / f
    if u < voter_width:
        index = int(u * f / params.rate_voter)
        # guard the float edge where u * f / rate lands exactly on m
        return voter_type(min(index, params.m - 1))
    if u < voter_width + params.rate_tx / f:
        return transaction_type()
    return proposer_type()


@dataclass(frozen=True)
class Header:
    parent_root: bytes
    content_root: bytes
    nonce: int

    def serialize(self) -> bytes:
        return self.parent_root + self.content_root + u64(self.nonce)

    @property
    def digest(self) -> bytes:
        return sha256(self.serialize())


# --- typed content -----------------------------------------------------------

@dataclass(frozen=True)
class TransactionContent:
    txs: tuple[Transaction, ...]


@dataclass(frozen=True)
class ProposerContent:
    prp_refs: tuple[bytes, ...]  # unreferenced proposer blocks, arrival order
    tx_refs: tuple[bytes, ...]  # unreferenced transaction blocks, arrival order


@dataclass(frozen=True)
class VoterContent:
    votes: tuple[tuple[int, bytes], ...]  # (proposer level, proposer digest)


Content = TransactionContent | ProposerContent | VoterContent


def serialize_content(content: Content) -> bytes:
    """Canonical leaf bytes committed by the content Merkle root.

    Transaction lists commit to transaction ids (which bind the
    transaction bodies); reference lists and votes commit in full.
    """
    if isinstance(content, TransactionContent):
        return u32(len(content.txs)) + b"".join(tx.digest for tx in content.txs)
    if isinstance(content, ProposerContent):
        return (
            u32(len(content.prp_refs))
            + b"".join(content.prp_refs)
            + u32(len(content.tx_refs))
            + b"".join(content.tx_refs)
        )
    if isinstance(content, VoterContent):
        return u32(len(content.votes)) + b"".join(
            u64(level) + digest for level, digest in content.votes
        )
    raise TypeError(f"not a block content: {content!r}")


class ValidationError(Exception):
    """Base for block validation failures; ``check`` names the failed rule."""

    check = "Invalid"

    def __str__(self) -> str:
        detail = super().__str__()
        return f"{self.check}: {detail}" if detail else self.check


class BadSortitionProof(ValidationError):
    check = "BadSortitionProof"


class MalformedContent(ValidationError):
    check = "MalformedContent"


class BadSignature(ValidationError):
    check = "BadSignature"


class Block:
    """Pruned, proof-carrying block.

    Identity is the header digest.  ``parent_leaf`` is the parent-list
    entry committed at this block's index; transaction blocks keep it
    only to make their sortition proof checkable and expose no parent
    reference.
    """

    __slots__ = (
        "header",
        "block_type",
        "parent_leaf",
        "content",
        "parent_proof",
        "content_proof",
        "miner_id",
        "level",
        "digest",
    )

    def __init__(
        self,
        header: Header,
        block_type: BlockType,
        parent_leaf: bytes,
        content: Content,
        parent_proof: MerkleProof,
        content_proof: MerkleProof,
        miner_id: int,
        level: int = 0,
    ):
        self.header = header
        self.block_type = block_type
        self.parent_leaf = parent_leaf
        self.content = content
        self.parent_proof = parent_proof
        self.content_proof = content_proof
        self.miner_id = miner_id
        self.level = level  # the miner's record; receivers derive it from the parent
        self.digest = header.digest

    @property
    def parent_ref(self) -> bytes | None:
        """Parent digest for voter/proposer blocks; None for transaction blocks."""
        if self.block_type.kind == TRANSACTION:
            return None
        return self.parent_leaf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.block_type.kind
        if self.block_type.kind == VOTER:
            kind = f"voter[{self.block_type.chain_index}]"
        return f"Block({kind}, {self.digest.hex()[:12]})"


def validate_block(block: Block, params: SortitionParams, scheme: SignatureScheme) -> None:
    """Accept a block or raise the ValidationError naming the failed check.

    Checks, in order: both sortition proofs verify at the index implied
    by the claimed block type; the content structure matches the type;
    contained transactions carry well-formed signatures.  Semantic
    transaction validity against ledger state is deliberately not
    checked here; it happens during sanitization.
    """
    index = block.block_type.leaf_index(params.m)
    if block.parent_proof.leaf_index != index or block.content_proof.leaf_index != index:
        raise BadSortitionProof(
            f"proof index {block.parent_proof.leaf_index}/{block.content_proof.leaf_index} "
            f"does not match type index {index}"
        )
    if not merkle_verify(block.header.parent_root, block.parent_leaf, block.parent_proof):
        raise BadSortitionProof("parent proof does not reach parent root")
    content_leaf = serialize_content(block.content)
    if not merkle_verify(block.header.content_root, content_leaf, block.content_proof):
        raise BadSortitionProof("content proof does not reach content root")

    kind = block.block_type.kind
    if kind == TRANSACTION:
        if not isinstance(block.content, TransactionContent):
            raise MalformedContent("transaction block without transaction list")
    elif kind == PROPOSER:
        if not isinstance(block.content, ProposerContent):
            raise MalformedContent("proposer block without reference lists")
        if len(block.parent_leaf) != DIGEST_SIZE:
            raise MalformedContent("proposer parent is not a digest")
        for ref in block.content.prp_refs + block.content.tx_refs:
            if len(ref) != DIGEST_SIZE:
                raise MalformedContent("reference is not a digest")
    else:
        if not isinstance(block.content, VoterContent):
            raise MalformedContent("voter block without vote list")
        if len(block.parent_leaf) != DIGEST_SIZE:
            raise MalformedContent("voter parent is not a digest")
        last_level = 0
        for level, digest in block.content.votes:
            if level <= last_level:
                raise MalformedContent("votes must cover strictly increasing levels")
            if len(digest) != DIGEST_SIZE:
                raise MalformedContent("vote is not a digest")
            last_level = level

    if kind == TRANSACTION:
        for tx in block.content.txs:
            if not tx.signatures_well_formed(scheme):
                raise BadSignature(f"transaction {tx.digest.hex()[:12]}")


def genesis_proposer_digest() -> bytes:
    return sha256(b"prismsim:genesis:proposer")


def genesis_voter_digest(chain_index: int) -> bytes:
    return sha256(b"prismsim:genesis:voter:" + u32(chain_index))
