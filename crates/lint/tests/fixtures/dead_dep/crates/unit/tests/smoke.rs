#[test]
fn identity_is_square() {
    let _ = le_obs::global();
    assert_eq!(le_fixture::identity(2).rows(), 2);
}
