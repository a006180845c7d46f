fn main() {
    std::process::exit(pocolo_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
