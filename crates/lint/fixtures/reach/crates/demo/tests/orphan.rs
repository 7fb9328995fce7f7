#[test]
fn only_a_test_calls_the_orphan() {
    assert_eq!(demo::orphan().depth, 1);
    let _ = demo::Kept.inner();
}
