"""Block anatomy: superblocks, sortition, pruning, and ledger formation.

Mines a few blocks by hand against one node's state, shows the sortition
proofs verifying, then rebuilds the classic two-level ledger example where
a duplicate payment and a double-spend get sanitized away.
"""
from prismsim.blocks import SortitionParams, sortition, validate_block
from prismsim.chain import ChainState, Genesis
from prismsim.confirmation import build_ledger
from prismsim.crypto import get_scheme
from prismsim.ledger import TxInput, TxOutput, Utxo, sanitize, signed_transaction
from prismsim.mining import finish_mining, honest_context
from prismsim.rng import default_rng

scheme = get_scheme("mock")
m = 8
params = SortitionParams(m=m, rate_tx=2.0, rate_prop=0.5, rate_voter=0.25)

print("=== sortition: one draw, one block type ===")
rng = default_rng(0)
counts = {}
for _ in range(2000):
    bt = sortition(rng.random(), params)
    key = bt.kind if bt.kind != "voter" else f"voter[{bt.chain_index}]"
    counts[key] = counts.get(key, 0) + 1
total = params.total_rate
print(f"rates: tx {params.rate_tx/total:.1%}, prop {params.rate_prop/total:.1%}, "
      f"each voter chain {params.rate_voter/total:.1%}")
print("observed over 2000 draws:", dict(sorted(counts.items())))
print()

print("=== mining: assemble all m+2 sub-blocks, keep the winner ===")
genesis = Genesis(m)
state = ChainState(m, genesis=genesis)
keys = [scheme.keypair(bytes([i])) for i in range(4)]
coin = Utxo(bytes(32), 0, 10, keys[0].public)
utxo = {coin.id: coin}
tx = signed_transaction(scheme, [TxInput(*coin.id)], [TxOutput(10, keys[1].public)], [keys[0]])
state.receive_transaction(tx, 0.0, scheme)

ctx = honest_context(state, miner_id=0, now=0.0, tx_capacity=100)
for nonce, u in enumerate([0.97, 0.80, 0.05], start=1):
    block = finish_mining(ctx, params, u, nonce=nonce)
    validate_block(block, params, scheme)  # sortition proofs check out
    print(f"u={u:.2f} -> {block.block_type.kind:11s} block {block.digest.hex()[:12]}, "
          f"{len(block.parent_proof.siblings)} siblings per proof")
print()

print("=== ledger formation: duplicate and conflicting payments ===")
# two level-1 proposer blocks reference overlapping transaction blocks;
# the level-2 leader stitches everything into one ordered list
from prismsim.mining import MinerContext

def forge_tx_block(txs, nonce):
    c = MinerContext(0, state.proposer_genesis, 0,
                     list(genesis.voters), list(txs), (), (),
                     [[] for _ in range(m)])
    return finish_mining(c, params, 0.80, nonce)

def forge_proposer(parent, level, prp_refs, tx_refs, nonce):
    c = MinerContext(0, parent, level - 1,
                     list(genesis.voters), [], tuple(prp_refs),
                     tuple(tx_refs), [[] for _ in range(m)])
    return finish_mining(c, params, 0.97, nonce)

coins = [Utxo(bytes(31) + bytes([i + 1]), 0, 10, keys[0].public) for i in range(3)]
utxo = {c.id: c for c in coins}
pay = lambda c, to: signed_transaction(scheme, [TxInput(*c.id)], [TxOutput(10, to.public)], [keys[0]])
a, b = pay(coins[0], keys[1]), pay(coins[1], keys[2])
d, c_tx = pay(coins[2], keys[3]), pay(coins[2], keys[1])  # c double-spends d's coin

blocks = {
    "Ta1": forge_tx_block([a], 1), "Ta2": forge_tx_block([a], 2),
    "Tb": forge_tx_block([b], 3), "Td": forge_tx_block([d], 4), "Tc": forge_tx_block([c_tx], 5),
}
leader1 = forge_proposer(state.proposer_genesis, 1, [], [blocks["Ta1"].digest], 6)
right1 = forge_proposer(state.proposer_genesis, 1, [], [blocks["Ta2"].digest, blocks["Tb"].digest], 7)
leader2 = forge_proposer(right1.digest, 2, [leader1.digest], [blocks["Td"].digest, blocks["Tc"].digest], 8)
for blk in list(blocks.values()) + [leader1, right1, leader2]:
    state.receive_block(blk)

names = {a.digest: "a", b.digest: "b", c_tx.digest: "c", d.digest: "d"}
raw = [t for t, _ in build_ledger([leader1.digest, leader2.digest], state)]
print("raw ledger order:", [names[t.digest] for t in raw])
applied, _ = sanitize(raw, dict(utxo), scheme)
print("after sanitization:", [names[t.digest] for t in applied],
      "(duplicate a and conflicting c discarded)")
