//! Quickstart: a transactional store that survives crashes, then gets a
//! backup, then fails over.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dsnrep::core::{Engine, EngineConfig, ImprovedLogEngine, Machine, VersionTag};
use dsnrep::repl::PassiveCluster;
use dsnrep::simcore::{CostModel, MIB};
use dsnrep::workloads::DebitCredit;

fn main() {
    // ---- 1. A standalone recoverable-memory transaction store ----------
    let config = EngineConfig::for_db(MIB);
    let arena = dsnrep::core::shared_arena(ImprovedLogEngine::arena_len(&config));
    let mut machine = Machine::standalone(CostModel::alpha_21164a(), arena);
    let mut engine = ImprovedLogEngine::format(&mut machine, &config);
    let account = engine.db_region().start();

    // Deposit 100, transactionally.
    engine.begin(&mut machine).expect("engine is idle");
    engine
        .set_range(&mut machine, account, 8)
        .expect("in database");
    engine
        .write(&mut machine, account, &100u64.to_le_bytes())
        .expect("covered");
    engine.commit(&mut machine).expect("commit");

    // Start a withdrawal... and crash in the middle of it.
    engine.begin(&mut machine).expect("engine is idle");
    engine
        .set_range(&mut machine, account, 8)
        .expect("in database");
    engine
        .write(&mut machine, account, &0u64.to_le_bytes())
        .expect("covered");
    machine.crash(); // volatile state gone; recoverable memory survives

    let mut engine = ImprovedLogEngine::attach(&mut machine).expect("formatted arena");
    let report = engine.recover(&mut machine).expect("no fault armed");
    let mut balance = [0u8; 8];
    engine.read(&mut machine, account, &mut balance);
    println!(
        "after crash + recovery: balance = {} (rolled back: {})",
        u64::from_le_bytes(balance),
        report.rolled_back
    );
    assert_eq!(u64::from_le_bytes(balance), 100);

    // ---- 2. The same engine, replicated to a backup over the SAN --------
    let mut cluster =
        PassiveCluster::new(CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config);
    let mut workload = DebitCredit::new(cluster.engine().db_region(), 7);
    let report = cluster.run(&mut workload, 1_000);
    println!("replicated run: {report}");
    println!("shipped to the backup: {}", cluster.traffic());

    // ---- 3. Kill the primary; the backup takes over ---------------------
    let mut failover = cluster.crash_primary();
    println!(
        "failover: backup recovered {} committed transactions",
        failover.report.committed_seq
    );
    // The promoted backup keeps serving.
    for _ in 0..100 {
        let mut ctx =
            dsnrep::workloads::TxCtx::new(&mut failover.machine, failover.engine.as_mut());
        use dsnrep::workloads::Workload;
        workload
            .run_txn(&mut ctx)
            .expect("post-failover transaction");
    }
    println!(
        "backup served 100 more transactions (seq now {})",
        failover.engine.committed_seq(&mut failover.machine)
    );
}
