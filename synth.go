package knnshapley

import "knnshapley/internal/dataset"

// The Synth functions expose the repository's synthetic dataset generators:
// Gaussian-mixture embeddings calibrated to mimic the distance geometry
// (accuracy band and relative contrast) of the paper's benchmark datasets.
// See MixtureConfig and the generators in internal/dataset/synthetic.go
// for the calibration rationale.

// SynthMNIST stands in for MNIST deep features (10 classes, ~95% 1NN).
func SynthMNIST(n int, seed uint64) *Dataset { return dataset.MNISTLike(n, seed) }

// SynthCIFAR10 stands in for CIFAR-10 ResNet-50 features (~81% 1NN).
func SynthCIFAR10(n int, seed uint64) *Dataset { return dataset.CIFAR10Like(n, seed) }

// SynthImageNet stands in for ImageNet ResNet-50 features (1000 classes).
func SynthImageNet(n int, seed uint64) *Dataset { return dataset.ImageNetLike(n, seed) }

// SynthYahoo stands in for the Yahoo Flickr 10M deep-feature subset.
func SynthYahoo(n int, seed uint64) *Dataset { return dataset.Yahoo10MLike(n, seed) }

// SynthDogFish stands in for the binary dog-fish Inception features — the
// lowest-contrast benchmark of Figure 9.
func SynthDogFish(n int, seed uint64) *Dataset { return dataset.DogFishLike(n, seed) }

// SynthDeep stands in for the high-contrast "deep" MNIST embedding.
func SynthDeep(n int, seed uint64) *Dataset { return dataset.DeepLike(n, seed) }

// SynthGist stands in for the mid-contrast "gist" MNIST embedding.
func SynthGist(n int, seed uint64) *Dataset { return dataset.GistLike(n, seed) }

// SynthIris stands in for the Fisher Iris table of Figure 16 (n <= 0 gives
// the classic 150 rows).
func SynthIris(n int, seed uint64) *Dataset { return dataset.IrisLike(n, seed) }

// SynthRegression samples a smooth regression task y = sin(|x|) + x·w + ε.
func SynthRegression(n, dim int, noise float64, seed uint64) *Dataset {
	return dataset.Regression(dataset.RegressionConfig{
		Name: "synth-regression", N: n, Dim: dim, Noise: noise, Seed: seed,
	})
}

// AssignSellers distributes n training points round-robin over m sellers and
// returns the owner of each point (the multi-data-per-curator setup).
func AssignSellers(n, m int) []int { return dataset.Sellers(n, m) }
