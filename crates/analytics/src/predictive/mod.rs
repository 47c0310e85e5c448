//! Predictive analytics — *"what will happen?"*.
//!
//! Forecasting (*foresight*) over the hindsight the other types provide:
//! exponential-smoothing forecasters, autoregressive models, k-NN job
//! prediction from submission metadata, and the FFT and harmonic-regression
//! toolbox behind the LLNL power-fluctuation use case (§V-C of the paper).

pub mod ar;
pub mod fft;
pub mod forecast;
pub mod harmonic;
pub mod jobs;
