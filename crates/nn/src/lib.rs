//! Minimal neural-network substrate for next-operator prediction.
//!
//! Fig. 13 of the paper predicts the next operator with an **embedding
//! layer → ReLU RNN → concat(single-operator scores) → MLP → softmax**
//! architecture implemented in Keras. This crate rebuilds exactly those
//! pieces from scratch — dense layers, a simple (Elman) RNN with ReLU
//! activation, softmax cross-entropy, and Adam — sized for the task's tiny
//! vocabulary (7 operators) and short sequences. It also hosts the N-gram
//! language model used as a baseline in Table 11.

pub mod adam;
pub mod layers;
pub mod matmul;
pub mod ngram;
pub mod rnn;

pub use adam::Adam;
pub use layers::{softmax, Dense, Embedding};
pub use ngram::NgramModel;
pub use rnn::{RnnClassifier, RnnConfig, SequenceExample};
