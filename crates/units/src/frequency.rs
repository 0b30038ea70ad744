//! Clock frequencies.

quantity! {
    /// A clock frequency in GHz.
    ///
    /// Core frequencies in the paper are 2.6/2.9/3.2 GHz; the uncore domain
    /// spans 1.2–2.8 GHz.
    GigaHertz, "GHz"
}
