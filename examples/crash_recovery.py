#!/usr/bin/env python
"""Crash consistency: durable transactions surviving power failure.

PMOs must remain consistent across crashes (Section II-C).  This demo
keeps bank accounts in a pool and transfers money between them inside
undo-logged transactions; a simulated power failure in the middle of a
transfer — even one whose in-place writes already reached the media —
rolls back cleanly on recovery, and the total balance is conserved.

Run:  python examples/crash_recovery.py      (REPRO_SMOKE=1 shrinks it)
"""

import random

from repro.pmo import Pool, TransactionManager
from repro.scenario import smoke_active

SMOKE = smoke_active()
N_ACCOUNTS = 16
N_ROUNDS = 40 if SMOKE else 200
INITIAL_BALANCE = 1_000


def balance_slots(pool):
    root = pool.root(N_ACCOUNTS * 8)
    return [root.offset + i * 8 for i in range(N_ACCOUNTS)]


def total(pool, slots):
    return sum(pool.memory.read_u64(slot) for slot in slots)


def main() -> None:
    pool = Pool(pool_id=1, name="bank", size=1 << 20,
                track_persistence=True)
    txm = TransactionManager(pool.memory)
    slots = balance_slots(pool)

    # Fund the accounts durably.
    tx = txm.begin()
    for slot in slots:
        tx.write_u64(slot, INITIAL_BALANCE)
    tx.commit()
    grand_total = total(pool, slots)
    print(f"{N_ACCOUNTS} accounts funded; total = {grand_total}")

    rng = random.Random(2026)
    committed = 0
    crashes = 0
    for round_ in range(N_ROUNDS):
        src, dst = rng.sample(range(N_ACCOUNTS), 2)
        amount = rng.randrange(1, 250)
        tx = txm.begin()
        src_balance = int.from_bytes(tx.read(slots[src], 8), "little")
        if src_balance < amount:
            tx.abort()
            continue
        tx.write_u64(slots[src], src_balance - amount)
        # Crash 10% of transfers here — after the debit, before the
        # credit.  Worst case: force the torn debit onto the media.
        if rng.random() < 0.10:
            pool.memory.persist(slots[src], 8)
            txm.crash()
            crashes += 1
            assert txm.needs_recovery
            rolled_back = txm.recover()
            assert rolled_back >= 1
            assert total(pool, slots) == grand_total, "money vanished!"
            continue
        dst_balance = int.from_bytes(tx.read(slots[dst], 8), "little")
        tx.write_u64(slots[dst], dst_balance + amount)
        tx.commit()
        committed += 1
        assert total(pool, slots) == grand_total, "money vanished!"

    print(f"{committed} transfers committed, {crashes} crashed mid-flight")
    print(f"after recovery, total is still {total(pool, slots)} "
          f"(= {grand_total})")
    print("crash consistency holds: every crashed transfer rolled back")


if __name__ == "__main__":
    main()
