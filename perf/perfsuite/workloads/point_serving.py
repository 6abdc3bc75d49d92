"""``point_serving`` — parameterized reads on a hot, cached statement set."""

from __future__ import annotations

import itertools

import repro
from repro.datamodel.database import Database
from repro.datamodel.schema import Schema

from perfsuite.ops import Op
from perfsuite.workloads.base import Workload, mixed

ACCOUNT_BALANCE = "ACCESS a.balance FROM a IN Account WHERE a.aid == :k"
ACCOUNT_ROW = ("ACCESS [id: a.aid, balance: a.balance, branch: a.branch] "
               "FROM a IN Account WHERE a.aid == :k")
CUSTOMER_NAME = "ACCESS c.name FROM c IN Customer WHERE c.cid == :k"
OWNER_NAME = "ACCESS a.owner.name FROM a IN Account WHERE a.aid == :k"
SINCE_RANGE = ("ACCESS c.cid FROM c IN Customer "
               "WHERE c.since >= :lo AND c.since < :hi")
BRANCH_ACCOUNTS = "ACCESS a.aid FROM a IN Account WHERE a.branch == :b"

#: shape -> operations per block of 2 000 (70 % point lookups on hashed
#: keys, 15 % two-hop path, 10 % sorted range with bind parameters, 5 %
#: low-cardinality equality read a page at a time)
MIX = {"account_balance": 700, "account_row": 200, "customer_name": 500,
       "owner_name": 300, "since_range": 200, "branch_accounts": 100}
RANGE_WIDTH = 50
PAGE = 64


class PointServing(Workload):
    """Six statement shapes, all cached after warm-up; Zipf(1.1) keys."""

    name = "point_serving"
    why = ("six cached parameterized read shapes, Zipf keys: api/service "
           "per-statement overhead and index lookups do the work, the optimizer none")

    def setup(self) -> None:
        self.n_customers = 100 if self.smoke else 2_000
        self.n_accounts = 10 * self.n_customers
        self.n_branches = self.n_accounts // 100
        self.mix = ({name: max(1, count // 50) for name, count in MIX.items()}
                    if self.smoke else MIX)
        rng = self.rng("data")
        since = list(range(self.n_customers))
        rng.shuffle(since)
        #: the oracle's model: plain records, never read back from the database
        self.customers = [(f"customer-{rng.randrange(10**6):06d}", cid % 40, since[cid])
                          for cid in range(self.n_customers)]
        self.accounts = [(rng.randrange(self.n_customers), rng.randrange(100_000),
                          rng.randrange(self.n_branches))
                         for _ in range(self.n_accounts)]
        self.cid_by_since = {row[2]: cid for cid, row in enumerate(self.customers)}
        self.by_branch: dict[int, set] = {}
        for aid, (_, _, branch) in enumerate(self.accounts):
            self.by_branch.setdefault(branch, set()).add(aid)
        # Zipf(1.1) over ranks; a seeded permutation decides which keys are hot
        self.account_keys = list(range(self.n_accounts))
        self.customer_keys = list(range(self.n_customers))
        rng.shuffle(self.account_keys)
        rng.shuffle(self.customer_keys)
        self.account_weights = list(itertools.accumulate(
            1.0 / rank ** 1.1 for rank in range(1, self.n_accounts + 1)))
        self.customer_weights = self.account_weights[:self.n_customers]

        connection = repro.connect(Database(Schema("point_serving")),
                                   durability="memory", parallelism=1,
                                   tracing=False)
        self.connections = [connection]
        self.knowledge = [connection.service.knowledge]
        cursor = connection.cursor()
        cursor.execute("CREATE CLASS Customer "
                       "(cid: INT, name: STRING, region: INT, since: INT)")
        cursor.execute("CREATE CLASS Account "
                       "(aid: INT, owner: Customer, balance: INT, branch: INT)")
        for cid, row in enumerate(self.customers):
            self.fingerprint.add("Customer", cid, *row)
        cursor.executemany(
            "INSERT INTO Customer (cid, name, region, since) VALUES (:c, :n, :r, :s)",
            [{"c": cid, "n": name, "r": region, "s": since_}
             for cid, (name, region, since_) in enumerate(self.customers)])
        owners = connection.execute("ACCESS [c: c.cid, o: c] FROM c IN Customer").fetchall()
        oid_of = {row["c"]: row["o"] for row in owners}
        for aid, row in enumerate(self.accounts):
            self.fingerprint.add("Account", aid, *row)
        cursor.executemany(
            "INSERT INTO Account (aid, owner, balance, branch) VALUES (:a, :o, :b, :r)",
            [{"a": aid, "o": oid_of[owner], "b": balance, "r": branch}
             for aid, (owner, balance, branch) in enumerate(self.accounts)])
        for ddl in ("CREATE HASH INDEX ON Account(aid)",
                    "CREATE HASH INDEX ON Account(branch)",
                    "CREATE HASH INDEX ON Customer(cid)",
                    "CREATE SORTED INDEX ON Customer(since)",
                    "ANALYZE"):
            cursor.execute(ddl)

    def block(self, index: int) -> list[Op]:
        rng = self.rng(index)
        shapes = mixed(rng, self.mix)
        account_keys = iter(rng.choices(self.account_keys,
                                        cum_weights=self.account_weights,
                                        k=len(shapes)))
        customer_keys = iter(rng.choices(self.customer_keys,
                                         cum_weights=self.customer_weights,
                                         k=len(shapes)))
        ops = []
        for shape in shapes:
            if shape == "account_balance":
                aid = next(account_keys)
                ops.append(Op(shape, "read", ACCOUNT_BALANCE, {"k": aid},
                              frozenset([self.accounts[aid][1]])))
            elif shape == "account_row":
                aid = next(account_keys)
                _, balance, branch = self.accounts[aid]
                ops.append(Op(shape, "read", ACCOUNT_ROW, {"k": aid}, frozenset([
                    (("balance", balance), ("branch", branch), ("id", aid))])))
            elif shape == "customer_name":
                cid = next(customer_keys)
                ops.append(Op(shape, "read", CUSTOMER_NAME, {"k": cid},
                              frozenset([self.customers[cid][0]])))
            elif shape == "owner_name":
                aid = next(account_keys)
                owner = self.accounts[aid][0]
                ops.append(Op(shape, "read", OWNER_NAME, {"k": aid},
                              frozenset([self.customers[owner][0]])))
            elif shape == "since_range":
                low = rng.randrange(self.n_customers - RANGE_WIDTH)
                ops.append(Op(shape, "read", SINCE_RANGE,
                              {"lo": low, "hi": low + RANGE_WIDTH},
                              frozenset(self.cid_by_since[s]
                                        for s in range(low, low + RANGE_WIDTH))))
            else:
                branch = rng.randrange(self.n_branches)
                ops.append(Op(shape, "read", BRANCH_ACCOUNTS, {"b": branch},
                              frozenset(self.by_branch.get(branch, ())), fetch=PAGE))
        return ops
