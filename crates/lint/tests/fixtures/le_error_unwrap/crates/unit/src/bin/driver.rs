fn main() {
    // Binaries are exempt from L2 but NOT from L8: a driver panicking
    // through a typed LeError defeats the degradation ladder.
    let mut engine = Engine::default();
    let r = engine.query(&[0.0]).expect("query succeeds");
    println!("{}", r.output[0]);
    // The wave entry point is flagged alike.
    let rows = engine.query_each(&[&[0.0]]).unwrap();
    println!("{}", rows.len());
}
