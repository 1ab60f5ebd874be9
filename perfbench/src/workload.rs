//! The three benchmark workloads: cluster configuration, schema and bulk
//! load, the per-transaction inputs drawn from the seed, the transaction
//! bodies (the proxy calls of the `tashkent-workloads` generators, issued
//! here so each can carry a span), and the output-correctness checkers.

use std::collections::HashMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;
use tashkent::cluster::Session;
use tashkent::{
    Cluster, ClusterConfig, Error, Result, Row, RowKey, SystemKind, TableId, TransportKind, Value,
    Version,
};
use tashkent_workloads::{AllUpdates, TpcB, TpcWBrowsing, Workload as _};

use crate::spans::{SpanKind, SpanLog};

/// One closed-loop client per replica.
pub const REPLICAS: usize = 2;
/// Certifier group size (per shard).
pub const CERTIFIERS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpcbApi,
    AllUpdatesMwTcp,
    BrowsingBaseTrim,
}

/// Dataset sizes.
const TPCB_BRANCHES: i64 = 4;
const TPCB_TELLERS_PER_BRANCH: i64 = 10;
const TPCB_ACCOUNTS_PER_BRANCH: i64 = 100_000;
const ALLUPDATES_ROWS_PER_CLIENT: i64 = 128;
const TPCW_ITEMS: i64 = 1000;
const TPCW_CUSTOMERS: i64 = 288;
const TPCW_INITIAL_STOCK: i64 = 1000;
const BROWSING_UPDATE_FRACTION: f64 = 0.05;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TpcbApi,
        Workload::AllUpdatesMwTcp,
        Workload::BrowsingBaseTrim,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcbApi => "tpcb-api",
            Workload::AllUpdatesMwTcp => "allupdates-mw-tcp",
            Workload::BrowsingBaseTrim => "browsing-base-trim",
        }
    }

    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cluster this workload runs on: 2 replicas, a 3-node certifier
    /// group, fsync free on both sides.
    #[must_use]
    pub fn cluster_config(self) -> ClusterConfig {
        self.config_with(self.transport())
    }

    /// The same cluster over another transport (the in-process reference
    /// run that isolates the network hop).
    #[must_use]
    pub fn config_with(self, transport: TransportKind) -> ClusterConfig {
        let (system, shards) = match self {
            Workload::TpcbApi => (SystemKind::TashkentApi, 1),
            Workload::AllUpdatesMwTcp => (SystemKind::TashkentMw, 2),
            Workload::BrowsingBaseTrim => (SystemKind::Base, 1),
        };
        let mut config = ClusterConfig::small(system);
        config.replicas = REPLICAS;
        config.certifiers = CERTIFIERS;
        config.certifier_shards = shards;
        config.clients_per_replica = 1;
        config.transport = transport;
        config.service_times.fsync = Duration::ZERO;
        config.service_times.fsync_jitter = Duration::ZERO;
        config
    }

    #[must_use]
    pub fn transport(self) -> TransportKind {
        match self {
            Workload::AllUpdatesMwTcp => TransportKind::Tcp,
            _ => TransportKind::InProcess,
        }
    }

    /// Whether the background checkpoint-and-trim loop runs.
    #[must_use]
    pub fn trims(self) -> bool {
        self == Workload::BrowsingBaseTrim
    }

    /// One line describing the dataset.
    #[must_use]
    pub fn dataset(self) -> String {
        match self {
            Workload::TpcbApi => format!(
                "TPC-B {TPCB_BRANCHES} branches x {TPCB_TELLERS_PER_BRANCH} tellers x {TPCB_ACCOUNTS_PER_BRANCH} accounts per branch"
            ),
            Workload::AllUpdatesMwTcp => format!(
                "AllUpdates, {ALLUPDATES_ROWS_PER_CLIENT} disjoint rows per client, counter + 32-byte payload"
            ),
            Workload::BrowsingBaseTrim => format!(
                "TPC-W browsing mix ({}% read-only), {TPCW_ITEMS} items x {TPCW_CUSTOMERS} customers",
                100.0 * (1.0 - BROWSING_UPDATE_FRACTION)
            ),
        }
    }

    /// Creates the schema and bulk-loads the dataset (the generators'
    /// `Workload::setup`, which also seals the recovery baseline).
    pub fn setup(self, cluster: &Cluster) {
        match self {
            Workload::TpcbApi => TpcB {
                branches: TPCB_BRANCHES,
                tellers_per_branch: TPCB_TELLERS_PER_BRANCH,
                accounts_per_branch: TPCB_ACCOUNTS_PER_BRANCH,
            }
            .setup(cluster),
            Workload::AllUpdatesMwTcp => AllUpdates {
                rows_per_client: ALLUPDATES_ROWS_PER_CLIENT,
            }
            .setup(cluster),
            Workload::BrowsingBaseTrim => TpcWBrowsing::new(Duration::ZERO)
                .with_catalogue(TPCW_ITEMS, TPCW_CUSTOMERS)
                .setup(cluster),
        }
    }

    /// Table ids, resolved once per run.
    #[must_use]
    pub fn tables(self, cluster: &Cluster) -> Vec<TableId> {
        let db = cluster.replica(0).database();
        self.table_names()
            .iter()
            .map(|name| db.table_id(name).expect("workload setup created the table"))
            .collect()
    }

    fn table_names(self) -> &'static [&'static str] {
        match self {
            Workload::TpcbApi => &["branches", "tellers", "accounts", "history"],
            Workload::AllUpdatesMwTcp => &["updates"],
            Workload::BrowsingBaseTrim => &["items", "customers", "orders", "cart_lines"],
        }
    }

    /// Draws the inputs of one logical transaction of `client`.  Retries
    /// reuse them, so the input stream depends on the seed alone.
    pub fn draw(self, rng: &mut StdRng, client: usize) -> Inputs {
        match self {
            Workload::TpcbApi => {
                let branch = rng.gen_range(0..TPCB_BRANCHES);
                Inputs::Tpcb {
                    branch,
                    teller: branch * TPCB_TELLERS_PER_BRANCH
                        + rng.gen_range(0..TPCB_TELLERS_PER_BRANCH),
                    account: branch * TPCB_ACCOUNTS_PER_BRANCH
                        + rng.gen_range(0..TPCB_ACCOUNTS_PER_BRANCH),
                    delta: rng.gen_range(-100_000i64..100_000),
                    history: (client as i64, rng.gen_range(0..i64::MAX / 2)),
                }
            }
            Workload::AllUpdatesMwTcp => Inputs::AllUpdates {
                key: client as i64 * ALLUPDATES_ROWS_PER_CLIENT
                    + rng.gen_range(0..ALLUPDATES_ROWS_PER_CLIENT),
            },
            Workload::BrowsingBaseTrim => {
                if rng.gen::<f64>() < BROWSING_UPDATE_FRACTION {
                    Inputs::Buy {
                        customer: rng.gen_range(0..TPCW_CUSTOMERS),
                        item: rng.gen_range(0..TPCW_ITEMS),
                        qty: rng.gen_range(1..4),
                        cart_line: (client as i64, rng.gen_range(0..i64::MAX / 2)),
                        order: rng.gen_range(0..i64::MAX / 2),
                    }
                } else {
                    let mut items = [0; 8];
                    for item in &mut items {
                        *item = rng.gen_range(0..TPCW_ITEMS);
                    }
                    Inputs::Browse {
                        items,
                        customer: rng.gen_range(0..TPCW_CUSTOMERS),
                    }
                }
            }
        }
    }
}

/// The inputs of one logical transaction.
#[derive(Debug, Clone, Copy)]
pub enum Inputs {
    Tpcb {
        branch: i64,
        teller: i64,
        account: i64,
        delta: i64,
        history: (i64, i64),
    },
    AllUpdates {
        key: i64,
    },
    Browse {
        items: [i64; 8],
        customer: i64,
    },
    Buy {
        customer: i64,
        item: i64,
        qty: i64,
        cart_line: (i64, i64),
        order: i64,
    },
}

impl Inputs {
    /// The AllUpdates row this transaction increments.
    #[must_use]
    pub fn counter_key(&self) -> Option<i64> {
        match *self {
            Inputs::AllUpdates { key } => Some(key),
            _ => None,
        }
    }

    /// `true` for a transaction that writes.
    #[must_use]
    pub fn is_update(&self) -> bool {
        !matches!(self, Inputs::Browse { .. })
    }
}

fn int(row: Option<&Row>, column: &str) -> i64 {
    row.and_then(|r| r.get(column))
        .and_then(Value::as_int)
        .unwrap_or(0)
}

fn cols(columns: &[(&str, Value)]) -> Vec<(String, Value)> {
    columns
        .iter()
        .map(|(name, value)| ((*name).to_owned(), value.clone()))
        .collect()
}

/// Runs one attempt of a logical transaction through `session`, each proxy
/// call inside its own span.
///
/// # Errors
///
/// Whatever the proxy returns; retryable aborts are retried by the client loop.
pub fn execute(
    session: &Session,
    tables: &[TableId],
    inputs: &Inputs,
    log: &mut SpanLog,
) -> Result<()> {
    let tx = log.call(SpanKind::Begin, || session.begin());
    match *inputs {
        Inputs::Tpcb {
            branch,
            teller,
            account,
            delta,
            history,
        } => {
            let (branches, tellers, accounts, history_table) =
                (tables[0], tables[1], tables[2], tables[3]);
            for (table, key) in [(accounts, account), (tellers, teller), (branches, branch)] {
                let row = log.call(SpanKind::Read, || tx.read(table, key))?;
                let balance = int(row.as_ref(), "balance") + delta;
                log.call(SpanKind::Update, || {
                    tx.update(table, key, cols(&[("balance", Value::Int(balance))]))
                })?;
            }
            log.call(SpanKind::Insert, || {
                tx.insert(
                    history_table,
                    history,
                    cols(&[
                        ("account", Value::Int(account)),
                        ("delta", Value::Int(delta)),
                    ]),
                )
            })?;
        }
        Inputs::AllUpdates { key } => {
            let table = tables[0];
            let row = log.call(SpanKind::Read, || tx.read(table, key))?;
            let counter = int(row.as_ref(), "counter") + 1;
            log.call(SpanKind::Insert, || {
                tx.insert(
                    table,
                    key,
                    cols(&[
                        ("counter", Value::Int(counter)),
                        ("payload", Value::Bytes(vec![0xAB; 32])),
                    ]),
                )
            })?;
        }
        Inputs::Browse { items, customer } => {
            for item in items {
                log.call(SpanKind::Read, || tx.read(tables[0], item))?;
            }
            log.call(SpanKind::Read, || tx.read(tables[1], customer))?;
        }
        Inputs::Buy {
            customer,
            item,
            qty,
            cart_line,
            order,
        } => {
            let (items, customers, orders, cart_lines) =
                (tables[0], tables[1], tables[2], tables[3]);
            let item_row =
                log.call(SpanKind::Read, || tx.read(items, item))?
                    .ok_or(Error::RowNotFound {
                        table: "items".into(),
                        key: item.to_string(),
                    })?;
            let stock = int(Some(&item_row), "stock");
            let price = item_row
                .get("price")
                .and_then(Value::as_float)
                .unwrap_or(0.0);
            log.call(SpanKind::Insert, || {
                tx.insert(
                    cart_lines,
                    cart_line,
                    cols(&[("item", Value::Int(item)), ("qty", Value::Int(qty))]),
                )
            })?;
            log.call(SpanKind::Update, || {
                tx.update(items, item, cols(&[("stock", Value::Int(stock - qty))]))
            })?;
            log.call(SpanKind::Insert, || {
                tx.insert(
                    orders,
                    (customer, order),
                    cols(&[
                        ("customer", Value::Int(customer)),
                        ("item", Value::Int(item)),
                        ("qty", Value::Int(qty)),
                        ("total", Value::Float(price * qty as f64)),
                    ]),
                )
            })?;
            let row = log.call(SpanKind::Read, || tx.read(customers, customer))?;
            let count = int(row.as_ref(), "orders") + 1;
            log.call(SpanKind::Update, || {
                tx.update(customers, customer, cols(&[("orders", Value::Int(count))]))
            })?;
        }
    }
    log.call(SpanKind::Commit, || tx.commit())?;
    Ok(())
}

/// What the clients know about the transactions they ran, for the checks.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Logical transactions that committed, updates only.
    pub committed_updates: u64,
    /// Update transactions whose outcome is unknown to the client: failed
    /// after a commit was attempted, or abandoned in flight.
    pub uncertain_updates: u64,
    /// AllUpdates: committed increments per row.
    pub committed_per_key: HashMap<i64, u64>,
    /// AllUpdates: uncertain increments per row.
    pub uncertain_per_key: HashMap<i64, u64>,
}

impl Ledger {
    /// Records the final outcome of a transaction with `inputs`.
    pub fn record(&mut self, inputs: &Inputs, committed: bool) {
        if !inputs.is_update() {
            return;
        }
        let (total, per_key) = if committed {
            (&mut self.committed_updates, &mut self.committed_per_key)
        } else {
            (&mut self.uncertain_updates, &mut self.uncertain_per_key)
        };
        *total += 1;
        if let Some(key) = inputs.counter_key() {
            *per_key.entry(key).or_default() += 1;
        }
    }

    /// Folds another client's ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        self.committed_updates += other.committed_updates;
        self.uncertain_updates += other.uncertain_updates;
        for (k, v) in &other.committed_per_key {
            *self.committed_per_key.entry(*k).or_default() += v;
        }
        for (k, v) in &other.uncertain_per_key {
            *self.uncertain_per_key.entry(*k).or_default() += v;
        }
    }
}

/// A replica's tables as of one snapshot version.
#[derive(Debug, Clone)]
pub struct Image {
    pub version: Version,
    /// Rows per table, in the workload's table order.
    pub tables: Vec<Vec<(RowKey, Row)>>,
}

/// Reads every table of replica `replica` at its current version.
///
/// # Errors
///
/// Propagates engine errors from the snapshot scan.
pub fn image(cluster: &Cluster, tables: &[TableId], replica: usize) -> Result<Image> {
    let db = cluster.replica(replica).database();
    let version = db.version();
    let tx = db.begin_at(version);
    let mut rows = Vec::with_capacity(tables.len());
    for &table in tables {
        rows.push(tx.scan(table)?);
    }
    tx.abort();
    Ok(Image {
        version,
        tables: rows,
    })
}

fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(h << 6)
        .wrapping_add(h >> 2);
    h.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

fn hash_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(mix(h, bytes.len() as u64), |h, c| {
        let mut word = [0u8; 8];
        word[..c.len()].copy_from_slice(c);
        mix(h, u64::from_le_bytes(word))
    })
}

/// An order-independent digest of a table's rows.
fn table_digest(rows: &[(RowKey, Row)]) -> u64 {
    rows.iter().fold(rows.len() as u64, |acc, (key, row)| {
        let mut h = match key {
            RowKey::Int(k) => mix(1, *k as u64),
            RowKey::Pair(a, b) => mix(mix(2, *a as u64), *b as u64),
            RowKey::Text(s) => hash_bytes(3, s.as_bytes()),
        };
        for (name, value) in row.columns() {
            h = hash_bytes(h, name.as_bytes());
            h = match value {
                Value::Null => mix(h, 0),
                Value::Int(i) => mix(h, *i as u64),
                Value::Float(f) => mix(h, f.to_bits()),
                Value::Text(s) => hash_bytes(h, s.as_bytes()),
                Value::Bytes(b) => hash_bytes(h, b),
            };
        }
        acc.wrapping_add(mix(h, 0x5EED))
    })
}

fn col(row: &Row, column: &str) -> i64 {
    int(Some(row), column)
}

fn key_int(key: &RowKey) -> i64 {
    match key {
        RowKey::Int(k) | RowKey::Pair(k, _) => *k,
        RowKey::Text(_) => i64::MIN,
    }
}

fn within(
    what: &str,
    actual: u64,
    committed: u64,
    uncertain: u64,
) -> std::result::Result<(), String> {
    if actual < committed || actual > committed + uncertain {
        return Err(format!(
            "{what}: found {actual}, clients committed {committed} (+{uncertain} of unknown outcome)"
        ));
    }
    Ok(())
}

impl Workload {
    /// Checks one replica's image against the workload's invariants and the
    /// clients' ledger; returns a digest of the image for the cross-replica
    /// comparison.
    ///
    /// # Errors
    ///
    /// A description of the first invariant the image breaks.
    pub fn check_image(self, image: &Image, ledger: &Ledger) -> std::result::Result<u64, String> {
        match self {
            Workload::TpcbApi => check_tpcb(image, ledger)?,
            Workload::AllUpdatesMwTcp => check_allupdates(image, ledger)?,
            Workload::BrowsingBaseTrim => check_browsing(image, ledger)?,
        }
        Ok(image
            .tables
            .iter()
            .fold(image.version.0, |h, rows| mix(h, table_digest(rows))))
    }
}

fn check_tpcb(image: &Image, ledger: &Ledger) -> std::result::Result<(), String> {
    let [branches, tellers, accounts, history] = &image.tables[..] else {
        return Err("TPC-B image lacks its four tables".into());
    };
    let count = |rows: &Vec<(RowKey, Row)>, expected: i64, what: &str| {
        if rows.len() as i64 != expected {
            return Err(format!("{what}: {} rows, expected {expected}", rows.len()));
        }
        Ok(())
    };
    count(branches, TPCB_BRANCHES, "branches")?;
    count(tellers, TPCB_BRANCHES * TPCB_TELLERS_PER_BRANCH, "tellers")?;
    count(
        accounts,
        TPCB_BRANCHES * TPCB_ACCOUNTS_PER_BRANCH,
        "accounts",
    )?;
    // Per branch, the branch balance equals the sum over its tellers, the
    // sum over its accounts, and the sum of the history deltas of its
    // accounts.
    let mut branch = vec![0i64; TPCB_BRANCHES as usize];
    let mut by_tellers = branch.clone();
    let mut by_accounts = branch.clone();
    let mut by_history = branch.clone();
    let slot = |b: i64| {
        usize::try_from(b)
            .ok()
            .filter(|&b| b < TPCB_BRANCHES as usize)
    };
    for (key, row) in branches {
        let b = slot(key_int(key)).ok_or_else(|| format!("unknown branch {key}"))?;
        branch[b] += col(row, "balance");
    }
    for (key, row) in tellers {
        let b = slot(col(row, "branch")).ok_or_else(|| format!("teller {key}: bad branch"))?;
        by_tellers[b] += col(row, "balance");
    }
    for (key, row) in accounts {
        let b = slot(col(row, "branch")).ok_or_else(|| format!("account {key}: bad branch"))?;
        by_accounts[b] += col(row, "balance");
    }
    for (key, row) in history {
        let b = slot(col(row, "account") / TPCB_ACCOUNTS_PER_BRANCH)
            .ok_or_else(|| format!("history {key}: bad account"))?;
        by_history[b] += col(row, "delta");
    }
    for b in 0..branch.len() {
        if branch[b] != by_tellers[b] || branch[b] != by_accounts[b] || branch[b] != by_history[b] {
            return Err(format!(
                "branch {b}: balance {} but tellers sum {}, accounts sum {}, history deltas {}",
                branch[b], by_tellers[b], by_accounts[b], by_history[b]
            ));
        }
    }
    within(
        "history rows",
        history.len() as u64,
        ledger.committed_updates,
        ledger.uncertain_updates,
    )
}

fn check_allupdates(image: &Image, ledger: &Ledger) -> std::result::Result<(), String> {
    let rows = &image.tables[0];
    let mut total = 0u64;
    for (key, row) in rows {
        let k = key_int(key);
        let counter =
            u64::try_from(col(row, "counter")).map_err(|_| format!("row {k}: negative counter"))?;
        let committed = ledger.committed_per_key.get(&k).copied().unwrap_or(0);
        let uncertain = ledger.uncertain_per_key.get(&k).copied().unwrap_or(0);
        within(&format!("row {k} counter"), counter, committed, uncertain)?;
        total += counter;
    }
    if let Some((k, _)) = ledger
        .committed_per_key
        .iter()
        .find(|(k, _)| !rows.iter().any(|(key, _)| key_int(key) == **k))
    {
        return Err(format!("row {k} committed by a client but missing"));
    }
    within(
        "sum of counters",
        total,
        ledger.committed_updates,
        ledger.uncertain_updates,
    )
}

fn check_browsing(image: &Image, ledger: &Ledger) -> std::result::Result<(), String> {
    let [items, customers, orders, cart_lines] = &image.tables[..] else {
        return Err("TPC-W image lacks its four tables".into());
    };
    let mut ordered_qty: HashMap<i64, i64> = HashMap::new();
    let mut orders_of: HashMap<i64, i64> = HashMap::new();
    for (_, row) in orders {
        *ordered_qty.entry(col(row, "item")).or_default() += col(row, "qty");
        *orders_of.entry(col(row, "customer")).or_default() += 1;
    }
    if items.len() as i64 != TPCW_ITEMS || customers.len() as i64 != TPCW_CUSTOMERS {
        return Err(format!(
            "{} items and {} customers",
            items.len(),
            customers.len()
        ));
    }
    for (key, row) in items {
        let sold = TPCW_INITIAL_STOCK - col(row, "stock");
        let ordered = ordered_qty.get(&key_int(key)).copied().unwrap_or(0);
        if sold != ordered {
            return Err(format!(
                "item {key}: stock fell by {sold} but orders total {ordered}"
            ));
        }
    }
    for (key, row) in customers {
        let counted = orders_of.get(&key_int(key)).copied().unwrap_or(0);
        if col(row, "orders") != counted {
            return Err(format!(
                "customer {key}: order count {} but {counted} orders",
                col(row, "orders")
            ));
        }
    }
    if cart_lines.len() != orders.len() {
        return Err(format!(
            "{} cart lines for {} orders",
            cart_lines.len(),
            orders.len()
        ));
    }
    within(
        "orders",
        orders.len() as u64,
        ledger.committed_updates,
        ledger.uncertain_updates,
    )
}

/// After the clients stopped: brings every replica up to date, checks each
/// is at the certifier's system version, checks every replica's image, and
/// checks all images are identical.
///
/// # Errors
///
/// A description of the first failed check.
pub fn check(
    workload: Workload,
    cluster: &Cluster,
    ledger: &Ledger,
) -> std::result::Result<String, String> {
    cluster
        .sync_all()
        .map_err(|e| format!("sync_all failed: {e}"))?;
    let system = cluster.system_version();
    let tables = workload.tables(cluster);
    let mut digests = Vec::new();
    for r in 0..cluster.replica_count() {
        let image =
            image(cluster, &tables, r).map_err(|e| format!("replica {r}: scan failed: {e}"))?;
        if image.version != system {
            return Err(format!(
                "replica {r} at version {} after sync_all, system version {}",
                image.version.0, system.0
            ));
        }
        let digest = workload
            .check_image(&image, ledger)
            .map_err(|e| format!("replica {r}: {e}"))?;
        digests.push(digest);
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("replica contents differ at version {}", system.0));
    }
    Ok(format!(
        "{} replicas identical at version {}; {} committed updates (+{} unknown)",
        digests.len(),
        system.0,
        ledger.committed_updates,
        ledger.uncertain_updates
    ))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Instant;

    use rand::SeedableRng;

    use super::*;

    /// A set-up cluster after a few transactions per client, checked clean.
    fn ran(workload: Workload) -> (Arc<Cluster>, Vec<TableId>, Ledger) {
        let cluster = Arc::new(Cluster::new(workload.cluster_config()).unwrap());
        workload.setup(&cluster);
        let tables = workload.tables(&cluster);
        let mut ledger = Ledger::default();
        let mut log = SpanLog::new(false, Instant::now(), 0);
        for client in 0..REPLICAS {
            let session = cluster.session(client);
            let mut rng = StdRng::seed_from_u64(7 + client as u64);
            for _ in 0..60 {
                let inputs = workload.draw(&mut rng, client);
                // A stale replica's first attempts may lose certification.
                let outcome = (0..100)
                    .map(|_| execute(&session, &tables, &inputs, &mut log))
                    .find(|r| !r.as_ref().is_err_and(Error::is_retryable_abort))
                    .unwrap();
                assert!(outcome.is_ok(), "{outcome:?}");
                ledger.record(&inputs, true);
            }
        }
        let verdict = check(workload, &cluster, &ledger);
        assert!(verdict.is_ok(), "{verdict:?}");
        (cluster, tables, ledger)
    }

    /// Overwrites one row of replica 1 behind replication's back, at the
    /// replica's current version.
    fn corrupt(cluster: &Cluster, table: TableId, key: i64, columns: &[(&str, Value)]) {
        let db = cluster.replica(1).database();
        let mut row = db
            .read_latest(table, key)
            .map_or_else(Vec::new, |r| r.columns().to_vec());
        for (name, value) in columns {
            match row.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = value.clone(),
                None => row.push(((*name).to_owned(), value.clone())),
            }
        }
        db.bulk_load(
            table,
            vec![(RowKey::Int(key), Row::from_columns(row))],
            db.version(),
        );
    }

    /// A row nobody wrote since the bulk load (so it can take a version at
    /// the replica's current one).
    fn untouched(cluster: &Cluster, table: TableId, column: &str, initial: i64) -> i64 {
        let db = cluster.replica(1).database();
        (0..)
            .find(|&k| {
                db.read_latest(table, k)
                    .is_some_and(|r| int(Some(&r), column) == initial)
            })
            .unwrap()
    }

    fn rejected(workload: Workload, cluster: &Cluster, ledger: &Ledger, expect: &str) {
        let verdict = check(workload, cluster, ledger);
        let err = verdict.expect_err("a corrupted replica must fail the check");
        assert!(
            err.starts_with("replica 1: ") && err.contains(expect),
            "{err}"
        );
    }

    #[test]
    fn tpcb_check_rejects_a_corrupted_account() {
        let (cluster, tables, ledger) = ran(Workload::TpcbApi);
        let account = untouched(&cluster, tables[2], "balance", 0);
        corrupt(&cluster, tables[2], account, &[("balance", Value::Int(1))]);
        rejected(Workload::TpcbApi, &cluster, &ledger, "accounts sum");
    }

    #[test]
    fn allupdates_check_rejects_a_corrupted_counter() {
        let (cluster, tables, ledger) = ran(Workload::AllUpdatesMwTcp);
        // A key no client writes: counters must match the clients' ledger.
        corrupt(&cluster, tables[0], 10_000, &[("counter", Value::Int(5))]);
        rejected(
            Workload::AllUpdatesMwTcp,
            &cluster,
            &ledger,
            "row 10000 counter",
        );
    }

    #[test]
    fn browsing_check_rejects_a_corrupted_stock() {
        let (cluster, tables, ledger) = ran(Workload::BrowsingBaseTrim);
        let item = untouched(&cluster, tables[0], "stock", TPCW_INITIAL_STOCK);
        corrupt(
            &cluster,
            tables[0],
            item,
            &[("stock", Value::Int(TPCW_INITIAL_STOCK - 1))],
        );
        rejected(
            Workload::BrowsingBaseTrim,
            &cluster,
            &ledger,
            "stock fell by 1",
        );
    }

    #[test]
    fn ledger_counts_bound_the_checks() {
        let (cluster, tables, mut ledger) = ran(Workload::AllUpdatesMwTcp);
        // A client that believes it committed one more increment than the
        // replicas hold is caught too.
        let (&key, _) = ledger.committed_per_key.iter().next().unwrap();
        *ledger.committed_per_key.get_mut(&key).unwrap() += 1;
        ledger.committed_updates += 1;
        let err = check(Workload::AllUpdatesMwTcp, &cluster, &ledger).unwrap_err();
        assert!(err.contains(&format!("row {key} counter")), "{err}");
        // ... and an uncertain outcome widens the accepted range.
        *ledger.uncertain_per_key.entry(key).or_default() += 1;
        ledger.committed_per_key.entry(key).and_modify(|c| *c -= 1);
        ledger.committed_updates -= 1;
        ledger.uncertain_updates += 1;
        assert!(check(Workload::AllUpdatesMwTcp, &cluster, &ledger).is_ok());
        let image = image(&cluster, &tables, 0).unwrap();
        assert_eq!(image.version, cluster.system_version());
    }
}
