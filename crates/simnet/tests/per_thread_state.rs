//! The switches that shape a run — the pop order, the default fiber
//! stack size, the host profiler's arming, counters and samples — belong
//! to the thread that sets them: what one thread sets, arms or counts,
//! another thread never sees.

use simnet::PopOrder;
use simtrace::host;

#[test]
fn state_set_on_another_thread_stays_there() {
    std::thread::spawn(|| {
        simnet::set_pop_order(PopOrder::Shuffled(7));
        simnet::set_default_stack_size(64 << 10);
        host::set_enabled(true);
        {
            let _scope = host::scope(host::Site::Scenario);
            host::count(host::Counter::PoolMiss, 1);
        }
        assert_eq!(simnet::pop_order(), PopOrder::Shuffled(7));
        assert_eq!(simnet::default_stack_size(), 64 << 10);
    })
    .join()
    .expect("the setting thread ran to its end");

    assert_eq!(simnet::pop_order(), PopOrder::Fixed);
    assert_eq!(simnet::default_stack_size(), 1 << 20);
    assert!(!host::enabled());
    let report = host::collect();
    assert!(
        report.counters.iter().all(|&(_, n)| n == 0),
        "{:?}",
        report.counters
    );
    assert!(report.paths.is_empty());
}
